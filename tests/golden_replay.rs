//! Behaviour pin: seeded replays of every algorithm hash to fixed digests.
//!
//! Each digest is an FNV-1a hash over every recorded history event
//! (`RecordMode::Full`: step, process, kind, register, value, observed
//! writer), then every outcome and every per-process step count, of the
//! 8 seeded executions of one (algorithm, schedule, contention) cell. The
//! golden table was captured before the protocols were restructured, so
//! any change to which operations run, in which order, with which coin
//! draws and which outcomes shows up as a digest mismatch. A second table
//! does the same for solo participants run one after another on real
//! atomics (outcomes plus the final register contents).

use std::sync::Arc;

use rtas::algorithms::group_elect::{GeometricGroupElect, GroupElect, SiftingGroupElect};
use rtas::algorithms::{Combined, LogLogLe, LogStarLe, OriginalRatRace, SpaceEfficientRatRace};
use rtas::native::{run_protocol, NativeMemory};
use rtas::primitives::TasFromLe;
use rtas::sim::adversary::{Adversary, RandomSchedule, RoundRobin};
use rtas::sim::executor::Execution;
use rtas::sim::history::RecordMode;
use rtas::sim::memory::Memory;
use rtas::sim::op::OpKind;
use rtas::sim::protocol::Protocol;
use rtas::sim::word::{RegId, Word};

const ALGORITHMS: [&str; 8] = [
    "logstar",
    "loglog",
    "ratrace",
    "ratrace-orig",
    "combined",
    "tas",
    "geometric",
    "sifting",
];
const CONTENTION: [usize; 4] = [1, 2, 5, 16];
const SEEDS: u64 = 8;

/// One process protocol per participant, all on a fresh `memory`.
fn system(algorithm: &str, k: usize) -> (Memory, Vec<Box<dyn Protocol>>) {
    let mut mem = Memory::new();
    let protos = match algorithm {
        "logstar" => {
            let le = LogStarLe::new(&mut mem, k);
            (0..k).map(|_| le.elect()).collect()
        }
        "loglog" => {
            let le = LogLogLe::new(&mut mem, k);
            (0..k).map(|_| le.elect()).collect()
        }
        "ratrace" => {
            let le = SpaceEfficientRatRace::new(&mut mem, k);
            (0..k).map(|_| le.elect()).collect()
        }
        "ratrace-orig" => {
            let le = OriginalRatRace::new(&mut mem, k);
            (0..k).map(|_| le.elect()).collect()
        }
        "combined" => {
            let weak = Arc::new(LogStarLe::new(&mut mem, k));
            let le = Combined::new(&mut mem, weak, k);
            (0..k).map(|_| le.elect()).collect()
        }
        "tas" => {
            let le = Arc::new(LogStarLe::new(&mut mem, k));
            let tas = TasFromLe::new(&mut mem, le, "done");
            (0..k).map(|_| tas.tas()).collect()
        }
        "geometric" => {
            let ge = GeometricGroupElect::new(&mut mem, k.max(2), "ge");
            (0..k).map(|_| ge.elect()).collect()
        }
        "sifting" => {
            let ge = SiftingGroupElect::new(&mut mem, 0.3, "sift");
            (0..k).map(|_| ge.elect()).collect()
        }
        other => panic!("unknown algorithm {other}"),
    };
    (mem, protos)
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn replay_digest(algorithm: &str, schedule: &str, k: usize) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..SEEDS {
        let (mem, protos) = system(algorithm, k);
        let mut adversary: Box<dyn Adversary> = match schedule {
            "round-robin" => Box::new(RoundRobin::new(k)),
            _ => Box::new(RandomSchedule::new(seed.wrapping_mul(0x9e37_79b9) ^ 0x5a)),
        };
        let res = Execution::new(mem, protos, seed)
            .with_recording(RecordMode::Full)
            .run(adversary.as_mut());
        for e in res.history().events() {
            h.word(e.step);
            h.word(e.pid.index() as u64);
            h.word(match e.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
            });
            h.word(e.reg.0);
            h.word(e.value);
            h.word(e.observed_writer.map_or(u64::MAX, |p| p.index() as u64));
        }
        for o in res.outcomes() {
            h.word(o.unwrap_or(u64::MAX));
        }
        for &s in res.steps().as_slice() {
            h.word(s);
        }
        h.word(res.steps().total());
    }
    h.0
}

/// `k` participants run solo, one after another, on real atomics; the
/// digest covers their outcomes and the final register contents.
fn native_digest(algorithm: &str, k: usize) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..SEEDS {
        let (layout, protos) = system(algorithm, k);
        let memory = NativeMemory::from_layout(&layout);
        for (p, proto) in protos.into_iter().enumerate() {
            h.word(run_protocol(proto, &memory, p, seed));
        }
        for r in 0..memory.len() {
            h.word(memory.read(RegId(r as u64)) as Word);
        }
    }
    h.0
}

const GOLDEN_REPLAYS: &[(&str, &str, usize, u64)] = &[
    ("logstar", "round-robin", 1, 0x65af5829e6c27765),
    ("logstar", "random", 1, 0x65af5829e6c27765),
    ("logstar", "round-robin", 2, 0x28c37b2b673e2ee5),
    ("logstar", "random", 2, 0x1fb33e5ee6f3f68a),
    ("logstar", "round-robin", 5, 0x09b551d1c456090c),
    ("logstar", "random", 5, 0x4f451dbe8be9bcb9),
    ("logstar", "round-robin", 16, 0x032eef663f770488),
    ("logstar", "random", 16, 0x82202c54d4a8c033),
    ("loglog", "round-robin", 1, 0xb1540e7f52c0e925),
    ("loglog", "random", 1, 0xb1540e7f52c0e925),
    ("loglog", "round-robin", 2, 0x66f32fd62c6c25e2),
    ("loglog", "random", 2, 0xb0f87602268dbc36),
    ("loglog", "round-robin", 5, 0x08eb30420d4f0b68),
    ("loglog", "random", 5, 0x909ccdc9f2a9da70),
    ("loglog", "round-robin", 16, 0xc946b7739f889585),
    ("loglog", "random", 16, 0x33ec9048dbd46013),
    ("ratrace", "round-robin", 1, 0xf093d87c43c85965),
    ("ratrace", "random", 1, 0xf093d87c43c85965),
    ("ratrace", "round-robin", 2, 0xdc769369a1cb9065),
    ("ratrace", "random", 2, 0x56182b69ed95a697),
    ("ratrace", "round-robin", 5, 0x3bb7d7d8383b5549),
    ("ratrace", "random", 5, 0x0eb2fe795836e8ee),
    ("ratrace", "round-robin", 16, 0x390c3d63eb302426),
    ("ratrace", "random", 16, 0x67f47f40cca2f7ec),
    ("ratrace-orig", "round-robin", 1, 0xaef75dac7f1eb665),
    ("ratrace-orig", "random", 1, 0xaef75dac7f1eb665),
    ("ratrace-orig", "round-robin", 2, 0x014c243973a492e5),
    ("ratrace-orig", "random", 2, 0x1a28b600cad3c3f7),
    ("ratrace-orig", "round-robin", 5, 0x8f0e186dc29813ce),
    ("ratrace-orig", "random", 5, 0x91d7f3cfe79187f5),
    ("ratrace-orig", "round-robin", 16, 0xec56448fb90d88a4),
    ("ratrace-orig", "random", 16, 0x0f2752b955952d23),
    ("combined", "round-robin", 1, 0x32af3b823c8dc9e5),
    ("combined", "random", 1, 0x32af3b823c8dc9e5),
    ("combined", "round-robin", 2, 0x2b0844496cbc2265),
    ("combined", "random", 2, 0x0a0c92422bdc4c12),
    ("combined", "round-robin", 5, 0x1a8770cf19e3e0c7),
    ("combined", "random", 5, 0x1da1f57c5156f1b2),
    ("combined", "round-robin", 16, 0x882b36dce83e9d72),
    ("combined", "random", 16, 0xd4a20a9f73ba0a81),
    ("tas", "round-robin", 1, 0x156482cf10a374a5),
    ("tas", "random", 1, 0x156482cf10a374a5),
    ("tas", "round-robin", 2, 0x7f92483472432ae5),
    ("tas", "random", 2, 0x99042a69532402b5),
    ("tas", "round-robin", 5, 0x976d6cd9b5662dd5),
    ("tas", "random", 5, 0x1668bf01db0e81c4),
    ("tas", "round-robin", 16, 0x9908452d58166c97),
    ("tas", "random", 16, 0x9350d0e5721b3044),
    ("geometric", "round-robin", 1, 0xfba6ef9e691dbb25),
    ("geometric", "random", 1, 0xfba6ef9e691dbb25),
    ("geometric", "round-robin", 2, 0xd0ce27e8945cb125),
    ("geometric", "random", 2, 0xb82d15a74738cc4b),
    ("geometric", "round-robin", 5, 0x50c4ec29f8b8c5fa),
    ("geometric", "random", 5, 0x73e8ac46c3ce63fc),
    ("geometric", "round-robin", 16, 0x0041634a93e1d4a9),
    ("geometric", "random", 16, 0xe32110d6f3a9177f),
    ("sifting", "round-robin", 1, 0x6d473a8d4c907725),
    ("sifting", "random", 1, 0x6d473a8d4c907725),
    ("sifting", "round-robin", 2, 0x6ad8d0835d8dd3dd),
    ("sifting", "random", 2, 0x03f93e12459d1354),
    ("sifting", "round-robin", 5, 0xe57658131b80e5c4),
    ("sifting", "random", 5, 0xb37f0411810f2948),
    ("sifting", "round-robin", 16, 0xcf5a1eb987f79bde),
    ("sifting", "random", 16, 0x6cd2ed1b4bfb9104),
];

const GOLDEN_NATIVE: &[(&str, usize, u64)] = &[
    ("logstar", 1, 0xb66c146da149c927),
    ("logstar", 2, 0x6b6628ce872a34a7),
    ("logstar", 5, 0xc9ec598e8043bf05),
    ("logstar", 16, 0x45cf572d1957a825),
    ("loglog", 1, 0xd1b02bba678ea427),
    ("loglog", 2, 0x2abaf5a88ab48f27),
    ("loglog", 5, 0x50a8430420df6102),
    ("loglog", 16, 0x81b5e143090a577a),
    ("ratrace", 1, 0x56fe58f225816e65),
    ("ratrace", 2, 0x09c6c642ecdaada7),
    ("ratrace", 5, 0x8a511b31dccaf824),
    ("ratrace", 16, 0xbb29b75ec2240f53),
    ("combined", 1, 0x3879f8306a4a8665),
    ("combined", 2, 0xdaac668e7f833fe5),
    ("combined", 5, 0x44fe28771fba5807),
    ("combined", 16, 0x7028fc21732aa927),
    ("tas", 1, 0x57c891c1e52f18e7),
    ("tas", 2, 0x6cd8c95e3c794ce7),
    ("tas", 5, 0x4cf473026baeb4c5),
    ("tas", 16, 0x082674bc3d82de25),
    ("geometric", 1, 0x5b243a991472f525),
    ("geometric", 2, 0xb0e0a55c676541a5),
    ("geometric", 5, 0x4bbcf45b55f95205),
    ("geometric", 16, 0x7f82041062ea91e5),
    ("sifting", 1, 0x060bfb07a84f4204),
    ("sifting", 2, 0x3900d4f7c29c4ac4),
    ("sifting", 5, 0x75cdb958ffbf2665),
    ("sifting", 16, 0xe83b4efdd09d1344),
];

#[test]
fn replays_match_golden_digests() {
    let mut got_replays = Vec::new();
    let mut got_native = Vec::new();
    for algorithm in ALGORITHMS {
        for k in CONTENTION {
            for schedule in ["round-robin", "random"] {
                got_replays.push((
                    algorithm,
                    schedule,
                    k,
                    replay_digest(algorithm, schedule, k),
                ));
            }
            if algorithm != "ratrace-orig" {
                got_native.push((algorithm, k, native_digest(algorithm, k)));
            }
        }
    }
    let table: String = got_replays
        .iter()
        .map(|(a, s, k, d)| format!("    ({a:?}, {s:?}, {k}, {d:#018x}),\n"))
        .chain(
            got_native
                .iter()
                .map(|(a, k, d)| format!("    ({a:?}, {k}, {d:#018x}),\n")),
        )
        .collect();
    assert_eq!(
        got_replays, GOLDEN_REPLAYS,
        "replay digests moved:\n{table}"
    );
    assert_eq!(got_native, GOLDEN_NATIVE, "native digests moved:\n{table}");
}
