//! Object traits shared by the primitive and composite algorithms.

use rtas_sim::protocol::{Bound, Frame, Protocol};

/// A leader-election object any number of processes may enter.
///
/// At most one `elect()` protocol may return [`rtas_sim::protocol::ret::WIN`]
/// in any execution; if no participating process crashes, exactly one does.
/// Each process calls `elect()` at most once.
///
/// Every [`Elect`] object that is cheap to clone implements this trait:
/// the boxed protocol owns a clone of the object and the operation's
/// frame.
pub trait LeaderElect: Send + Sync {
    /// Build the per-process protocol performing one `elect()` call.
    fn elect(&self) -> Box<dyn Protocol>;
}

/// A leader-election object whose `elect()` is a [`Frame`] resumed
/// against the object itself.
///
/// This is how composites hold a leader election of a type chosen by
/// their caller (the Section 4 combiner's weak side, [`crate::TasFromLe`])
/// and how the native runtime runs an `elect()` without allocating: the
/// frame is a plain value and the object is only borrowed.
pub trait Elect: Send + Sync {
    /// The state of one `elect()` call.
    type Frame: Frame<Object = Self>;

    /// A frame poised at the start of one `elect()` call.
    fn frame(&self) -> Self::Frame;
}

impl<T: Elect + Clone + 'static> LeaderElect for T {
    fn elect(&self) -> Box<dyn Protocol> {
        Box::new(Bound::new(self.clone(), self.frame()))
    }
}

/// A leader-election object with a fixed, small number of named roles.
///
/// The 2- and 3-process elections used inside RatRace address participants
/// by *role* (e.g. "left child winner" vs "splitter winner"), and each role
/// may be used by at most one process per execution — the structures
/// guarantee this by construction, and the simulator objects check it with
/// a per-role entry register in debug builds.
pub trait RoleLeaderElect: Send + Sync {
    /// Number of roles (2 or 3 for the paper's objects).
    fn roles(&self) -> usize;

    /// Build the protocol for the given role.
    ///
    /// # Panics
    ///
    /// Panics if `role >= self.roles()`.
    fn elect_as(&self, role: usize) -> Box<dyn Protocol>;
}

/// A splitter-like object: `split()` returns `S`, `L`, or `R` (encoded as
/// [`rtas_sim::protocol::ret::SPLIT_STOP`] / `SPLIT_LEFT` / `SPLIT_RIGHT`).
pub trait SplitterObject: Send + Sync {
    /// Build the per-process protocol performing one `split()` call.
    fn split(&self) -> Box<dyn Protocol>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The traits must stay object-safe: simulator callers (experiments,
    // tests, examples) store objects as `Arc<dyn …>`.
    #[test]
    fn traits_are_object_safe() {
        fn _le(_: &dyn LeaderElect) {}
        fn _role(_: &dyn RoleLeaderElect) {}
        fn _sp(_: &dyn SplitterObject) {}
    }
}
