//! Small shared concurrency primitives used by the epoch-recycling
//! layers (`rtas-load`'s arena and epoch turn, `rtas-svc`'s keyed
//! namespaces): one definition each, so padding and backoff tuning
//! cannot drift between the sites that copy-paste them.

/// Pad (and align) a value to two cache lines: 128 bytes covers the
/// adjacent-line prefetcher on common x86 parts as well as 64-byte
/// lines elsewhere — neighbors in a `Vec<CachePadded<T>>` never
/// false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// The spin-then-yield discipline for short epoch waits: spin briefly
/// (the common case — the peer is mid-operation on another core), then
/// yield so an oversubscribed host cannot livelock the thread being
/// waited on out of its time slice.
#[derive(Debug, Default)]
pub struct Backoff {
    spins: u32,
}

impl Backoff {
    /// A fresh backoff (starts in the spinning phase).
    pub fn new() -> Self {
        Backoff { spins: 0 }
    }

    /// Wait one step: a spin hint for the first 64 calls, a scheduler
    /// yield afterwards.
    pub fn snooze(&mut self) {
        self.spins += 1;
        if self.spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_occupies_full_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<[u8; 130]>>(), 256);
    }

    #[test]
    fn backoff_transitions_from_spin_to_yield() {
        let mut backoff = Backoff::new();
        for _ in 0..200 {
            backoff.snooze(); // must not panic or wrap
        }
        assert!(backoff.spins >= 200);
    }
}
