//! Behaviour pin: the seeded chaos fault schedule hashes to fixed digests.
//!
//! Each digest is an FNV-1a hash (as in `tests/golden_replay.rs`) over
//! every operation's faults drawn by `ConnectionPlan::next_op` for
//! connections 0..4, 1,000 operations each, then every
//! `FaultPlan::reset_faults(shard, epoch)` over 4 shards × 256 epochs,
//! all from seed 7. The fixed draw order, the per-connection
//! `SplitMix64::split` streams and the tagged reset-fault seeds are the
//! replay contract: two runs of one build agreeing is not enough, the
//! schedule must not drift between commits either.

use rtas_load::chaos::{ChaosSpec, FaultPlan};

const SEED: u64 = 7;
const CONNECTIONS: u64 = 4;
const OPS: usize = 1_000;
const SHARDS: u64 = 4;
const EPOCHS: u64 = 256;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn schedule_digest(spec: &str) -> u64 {
    let plan = FaultPlan::new(ChaosSpec::parse(spec).expect("spec parses"), SEED);
    let mut h = Fnv::new();
    for conn in 0..CONNECTIONS {
        let mut stream = plan.for_connection(conn);
        for _ in 0..OPS {
            let f = stream.next_op();
            h.word(f.delay.as_nanos() as u64);
            h.word(u64::from(f.truncate));
            h.word(u64::from(f.reorder));
            h.word(f.stall.map_or(u64::MAX, |d| d.as_nanos() as u64));
            h.word(u64::from(f.drop_after));
        }
    }
    for shard in 0..SHARDS {
        for epoch in 0..EPOCHS {
            let f = plan.reset_faults(shard, epoch);
            h.word(u64::from(f.skip));
            h.word(u64::from(f.duplicate));
        }
    }
    h.0
}

const GOLDEN: [(&str, u64); 5] = [
    ("clean", 0xb108_4e87_3b91_7c25),
    ("delay-only", 0x58f3_0480_8c25_dcaf),
    ("drop-heavy", 0x0ac5_d1b0_ef56_461a),
    ("byzantine-reset", 0x4dd7_4894_4f21_c6a2),
    ("drop-heavy,stall=0.3,skip-reset=0.2", 0x7842_e326_70f2_98ae),
];

#[test]
fn fault_schedules_match_the_golden_digests() {
    let mut drifted = Vec::new();
    for (spec, golden) in GOLDEN {
        let got = schedule_digest(spec);
        if got != golden {
            drifted.push(format!("{spec}: got {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "fault schedule drifted:\n{}",
        drifted.join("\n")
    );
}
