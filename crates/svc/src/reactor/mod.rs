//! The readiness-driven reactor: many connections per worker thread.
//!
//! The blocking server spends one OS thread per connection; this
//! module spends one `Worker` thread per core-ish
//! ([`SvcConfig::workers`](crate::SvcConfig::workers)) and multiplexes
//! every connection assigned to it over a single readiness source,
//! `epoll(7)`, reached through the inline-assembly syscall shim in
//! `sys.rs` (the repo takes no external crates, and std does not
//! expose it). See `docs/ARCHITECTURE.md` for the full picture;
//! `worker.rs` holds the event-loop contract.
//!
//! Division of labor:
//!
//! * **Accept threads** stay blocking and unchanged — they claim the
//!   `max_conns` slot, refuse over the ceiling, and hand accepted
//!   sockets to the `Dispatcher`, which round-robins them across
//!   worker inboxes and wakes the chosen worker with one byte on its
//!   loopback wake socket.
//! * **Workers** own everything per-connection: the nonblocking
//!   socket, the [`Connection`](crate::Connection) state machine, the
//!   partial-write carryover cursor, and the read-deadline entry on a
//!   lazy timer wheel (`wheel.rs`). No locks are held while serving; the
//!   only cross-thread touchpoints are the inbox mutex (at admission)
//!   and the shared namespace/gauge atomics the blocking server
//!   already used.
//!
//! On platforms without the shim (anything but Linux on
//! x86_64/aarch64) the reactor engine reports itself unsupported and
//! `ReactorPool::spawn` fails cleanly; the caller keeps the
//! thread-per-connection engine instead.

pub(crate) mod wheel;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod worker;

use std::fmt;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rtas_obs::{Counter, FlightRecorder};

use crate::conn::ConnGauges;
use crate::metrics::SvcMetrics;
use crate::namespace::Namespace;

/// Which connection-serving engine a server runs.
///
/// `epoll` is the reactor engine (many connections per worker; see
/// the [module docs](self)); `threads` is the original
/// thread-per-connection design, kept both as the portable fallback
/// and as the behavioral reference the reactor is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Readiness via `epoll(7)`: O(ready) waits, the default on
    /// supported platforms.
    Epoll,
    /// One blocking handler thread per connection.
    Threads,
}

impl Engine {
    /// Whether this build has the syscall shim the reactor engine
    /// needs (Linux on x86_64 or aarch64).
    pub const SHIM_SUPPORTED: bool = cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ));

    /// The best engine this build supports: `epoll` with the shim,
    /// `threads` without.
    pub fn auto() -> Engine {
        if Engine::SHIM_SUPPORTED {
            Engine::Epoll
        } else {
            Engine::Threads
        }
    }

    /// Parse a `--engine` value (`epoll` | `threads`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "epoll" => Some(Engine::Epoll),
            "threads" => Some(Engine::Threads),
            _ => None,
        }
    }

    /// The CLI/report spelling (`epoll` | `threads`).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Epoll => "epoll",
            Engine::Threads => "threads",
        }
    }

    /// Whether this engine can run in this build (see
    /// [`Engine::SHIM_SUPPORTED`]; `threads` always can).
    pub fn supported(self) -> bool {
        matches!(self, Engine::Threads) || Engine::SHIM_SUPPORTED
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::auto()
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The accept side's handle to the workers: round-robin admission
/// into per-worker inboxes, one wake byte per handoff.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    wakers: Vec<TcpStream>,
    rr: AtomicUsize,
    /// `reactor.wake_writes` — every nudge byte written to a worker's
    /// wake socket (handoffs and shutdown broadcasts alike).
    wake_writes: Arc<Counter>,
}

impl Dispatcher {
    /// Hand an accepted (already `max_conns`-claimed) socket to a
    /// worker. Never blocks beyond the inbox mutex.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        let at = self.rr.fetch_add(1, Ordering::Relaxed) % self.inboxes.len();
        {
            let mut inbox = match self.inboxes[at].lock() {
                Ok(inbox) => inbox,
                Err(poisoned) => poisoned.into_inner(),
            };
            inbox.push(stream);
        }
        // A nonblocking one-byte nudge; WouldBlock means wakeups are
        // already queued, which is just as good.
        let mut waker: &TcpStream = &self.wakers[at];
        self.wake_writes.inc();
        let _ = waker.write_all(&[1u8]);
    }

    /// Nudge every worker (shutdown: each rechecks the stop flag).
    fn wake_all(&self) {
        for waker in &self.wakers {
            let mut waker: &TcpStream = waker;
            self.wake_writes.inc();
            let _ = waker.write_all(&[1u8]);
        }
    }
}

/// A running worker pool plus its dispatcher — what `Server` holds
/// when the reactor engine is selected.
#[derive(Debug)]
pub(crate) struct ReactorPool {
    dispatcher: Arc<Dispatcher>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Build `workers` epoll reactor workers. Fails cleanly if the
    /// engine is unsupported in this build or poller/wake-socket setup
    /// fails — nothing is left running on error.
    pub(crate) fn spawn(
        workers: usize,
        namespace: &Arc<Namespace>,
        gauges: &Arc<ConnGauges>,
        metrics: &Arc<SvcMetrics>,
        recorder: &Arc<FlightRecorder>,
        stop: &Arc<AtomicBool>,
        read_timeout: Option<Duration>,
    ) -> io::Result<ReactorPool> {
        if !Engine::Epoll.supported() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "engine 'epoll' needs the Linux x86_64/aarch64 syscall shim; \
                 use --engine threads on this platform",
            ));
        }
        spawn_impl(
            workers.max(1),
            namespace,
            gauges,
            metrics,
            recorder,
            stop,
            read_timeout,
        )
    }

    /// The accept loops' admission handle.
    pub(crate) fn dispatcher(&self) -> Arc<Dispatcher> {
        Arc::clone(&self.dispatcher)
    }

    /// Wake every worker and join them. The caller must have raised
    /// the stop flag first; workers close their connections on exit.
    pub(crate) fn join(self) {
        self.dispatcher.wake_all();
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn spawn_impl(
    workers: usize,
    namespace: &Arc<Namespace>,
    gauges: &Arc<ConnGauges>,
    metrics: &Arc<SvcMetrics>,
    recorder: &Arc<FlightRecorder>,
    stop: &Arc<AtomicBool>,
    read_timeout: Option<Duration>,
) -> io::Result<ReactorPool> {
    // Build every worker before spawning any thread: a mid-sequence
    // failure (fd pressure) must abort cleanly with nothing running.
    let mut built = Vec::with_capacity(workers);
    let mut inboxes = Vec::with_capacity(workers);
    let mut wakers = Vec::with_capacity(workers);
    for index in 0..workers {
        let (wake_rx, wake_tx) = worker::wake_pair()?;
        let inbox = Arc::new(Mutex::new(Vec::new()));
        built.push(worker::Worker::new(
            index,
            wake_rx,
            Arc::clone(&inbox),
            Arc::clone(namespace),
            Arc::clone(gauges),
            Arc::clone(metrics),
            Arc::clone(recorder),
            Arc::clone(stop),
            read_timeout,
        )?);
        inboxes.push(inbox);
        wakers.push(wake_tx);
    }
    let handles = built
        .into_iter()
        .map(|w| std::thread::spawn(move || w.run()))
        .collect();
    Ok(ReactorPool {
        dispatcher: Arc::new(Dispatcher {
            inboxes,
            wakers,
            rr: AtomicUsize::new(0),
            wake_writes: Arc::clone(&metrics.wake_writes),
        }),
        workers: handles,
    })
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn spawn_impl(
    _workers: usize,
    _namespace: &Arc<Namespace>,
    _gauges: &Arc<ConnGauges>,
    _metrics: &Arc<SvcMetrics>,
    _recorder: &Arc<FlightRecorder>,
    _stop: &Arc<AtomicBool>,
    _read_timeout: Option<Duration>,
) -> io::Result<ReactorPool> {
    unreachable!("Engine::supported() gates reactor spawn off-shim")
}
