//! The workloads and the seeded op streams they replay.
//!
//! Every workload is a race: each epoch, every lane takes part in a
//! test-and-set on the same key, and the last finisher acks `RESET`,
//! which opens the next epoch. A stream is the whole input of a run:
//! which key each epoch races on, which lane arrives late and by how
//! much. Everything comes from `--seed`; the program under test only
//! ever sees the generated keys.

use rtas::sim::rng::SplitMix64;

/// Load lanes, and so participants per key-epoch: threads in process,
/// connections over loopback. The box this benchmark targets has two
/// cores, so two lanes keep both busy without measuring the scheduler.
pub const LANES: usize = 2;

/// One benchmark workload. See `README.md` for why each exists.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Served over a loopback `svc::Client`; otherwise the lanes call
    /// `rtas::TestAndSet` directly.
    pub served: bool,
    /// Participants admitted per key-epoch (the object's capacity).
    pub capacity: usize,
    /// Distinct keys the epochs draw from.
    pub pool: usize,
    /// Unmeasured epochs before the measured ones.
    pub warmup: usize,
    /// Measured epochs in one round (fixed work, so memory and sample
    /// counts do not depend on speed).
    pub round: usize,
    /// Measured epochs in the traced ladder run.
    pub ladder: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "inproc-contended",
        served: false,
        capacity: 2,
        pool: 1,
        warmup: 5_000,
        round: 200_000,
        ladder: 20_000,
    },
    Workload {
        name: "svc-contended",
        served: true,
        capacity: 2,
        pool: 256,
        warmup: 1_000,
        round: 25_000,
        ladder: 10_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A generated op stream: `warmup` epochs, then the measured ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Key table; `seq` holds indices into it.
    pub keys: Vec<Vec<u8>>,
    /// Per epoch: the key every lane races on.
    pub seq: Vec<u32>,
    /// Per epoch: the first touch of that key in the stream.
    pub first: Vec<bool>,
    /// Per epoch: the lane that arrives late, and the spin iterations it
    /// waits before issuing.
    pub late: Vec<(u8, u8)>,
    /// Unmeasured epochs at the front.
    pub warmup: usize,
}

fn key(index: usize, salt: u64) -> Vec<u8> {
    format!("k.{index:06}.{:012x}", salt & 0xffff_ffff_ffff).into_bytes()
}

impl Stream {
    /// The stream of round `round` of workload `w` under `seed`, with
    /// `measured` epochs after the warm-up: the same arguments always give
    /// the same stream.
    pub fn generate(w: &Workload, seed: u64, round: u64, measured: usize) -> Stream {
        let epochs = w.warmup + measured;
        // Pool keys depend on the seed only; the draw over them on the seed
        // and the round.
        let mut names = SplitMix64::split(seed, 0);
        let mut draw = SplitMix64::split(seed, round.wrapping_add(1));
        let keys: Vec<Vec<u8>> = (0..w.pool).map(|i| key(i, names.next_u64())).collect();
        // Warm-up touches every pool key first, so measured epochs never pay
        // first contact.
        assert!(
            w.warmup >= w.pool,
            "{}: warm-up must cover the key pool",
            w.name
        );
        let mut seq: Vec<u32> = (0..w.pool as u32).collect();
        seq.extend((w.pool..epochs).map(|_| draw.next_below(w.pool as u64) as u32));
        let late = (0..epochs)
            .map(|_| {
                (
                    draw.next_below(LANES as u64) as u8,
                    draw.next_below(8) as u8,
                )
            })
            .collect();
        let mut seen = vec![false; keys.len()];
        let first = seq
            .iter()
            .map(|&k| !std::mem::replace(&mut seen[k as usize], true))
            .collect();
        Stream {
            keys,
            seq,
            first,
            late,
            warmup: w.warmup,
        }
    }

    pub fn key(&self, id: u32) -> &[u8] {
        &self.keys[id as usize]
    }

    /// Epochs in the stream.
    pub fn epochs(&self) -> usize {
        self.seq.len()
    }

    /// Distinct keys touched by epochs `..end`.
    pub fn keys_touched(&self, end: usize) -> u64 {
        self.first[..end].iter().filter(|&&f| f).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_give_identical_streams() {
        for w in &WORKLOADS {
            for seed in [1, 7, u64::MAX] {
                assert_eq!(
                    Stream::generate(w, seed, 3, 500),
                    Stream::generate(w, seed, 3, 500),
                    "{}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn seeds_and_rounds_change_the_stream() {
        for w in &WORKLOADS {
            let a = Stream::generate(w, 1, 0, 500);
            assert_ne!(
                a,
                Stream::generate(w, 2, 0, 500),
                "{}: seed ignored",
                w.name
            );
            assert_ne!(
                a,
                Stream::generate(w, 1, 1, 500),
                "{}: round ignored",
                w.name
            );
        }
    }

    #[test]
    fn pool_keys_are_all_touched_during_warmup() {
        for w in &WORKLOADS {
            let s = Stream::generate(w, 5, 0, 500);
            assert!(s.first[s.warmup..].iter().all(|&f| !f), "{}", w.name);
            assert_eq!(s.keys_touched(s.warmup), s.keys.len() as u64);
        }
    }
}
