//! The std-only TCP server: sharded accept loops feeding either the
//! readiness-driven reactor (default) or one handler thread per
//! connection, frames served strictly in order.
//!
//! `listeners` accept threads share one bound socket (via
//! [`TcpListener::try_clone`]). What happens to an accepted connection
//! depends on [`SvcConfig::engine`]:
//!
//! * [`Engine::Epoll`] (the default where the
//!   [reactor](crate::reactor)'s syscall shim exists): the accepter
//!   hands the socket to a bounded pool of [`SvcConfig::workers`]
//!   reactor workers, each multiplexing thousands of nonblocking
//!   connections over one readiness source.
//! * [`Engine::Threads`]: the original design — each connection gets
//!   its own blocking handler thread. Kept as the portable fallback
//!   and as the behavioral reference.
//!
//! Either way a connection is a [`Connection`] state machine — a
//! reusable [`rtas::native::NativeRunner`] plus reusable frame buffers
//! — so the steady-state request path performs no allocation beyond
//! the protocol state machines (see `tests/alloc_steady.rs` and
//! `tests/alloc_reactor.rs`). Requests on one connection are executed
//! and answered **in order**, which is what makes client-side
//! pipelining sound.
//!
//! I/O is bulk: one large `read` ingests a whole pipelined burst, the
//! [`Connection`] decodes and executes every complete frame in it, and
//! all of the burst's responses are flushed with a single coalesced
//! write — one read + one write per burst instead of 2 reads + 1 write
//! per frame.
//!
//! Error policy, matching the [protocol docs](crate::protocol):
//! framing violations (oversized declared length, truncation) get a
//! best-effort `ERR` frame and the connection is closed; clean frames
//! carrying a bad request (unknown opcode, empty key, kind mismatch)
//! get an `ERR` response and the connection stays usable.
//!
//! The accept loops are bounded: at most [`SvcConfig::max_conns`]
//! connections are served concurrently; one beyond the ceiling gets a
//! best-effort `ERR` frame and an immediate close, and the refusal is
//! counted in the `STATS` gauges ([`crate::protocol::SvcStats::conns`]
//! / [`refused`](crate::protocol::SvcStats::refused)).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtas::Backend;
use rtas_obs::{EventKind, FlightRecorder, Lane, TraceMode};

use crate::conn::{ConnGauges, ConnObs, ConnStatus, Connection};
use crate::metrics::SvcMetrics;
use crate::namespace::Namespace;
use crate::protocol::{frame_response, Response};
use crate::reactor::{Dispatcher, Engine, ReactorPool};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Namespace shards (independent key maps + locks).
    pub shards: usize,
    /// Participants admitted per key-epoch.
    pub capacity: usize,
    /// Algorithm backing every keyed object.
    pub backend: Backend,
    /// Accept threads sharing the listening socket.
    pub listeners: usize,
    /// Ceiling on live keys across all shards — first contact beyond it
    /// is refused, bounding server memory against key-churning clients
    /// (see [`Namespace::with_max_keys`]).
    pub max_keys: usize,
    /// Admission lease: when `Some`, an epoch whose holder never acks
    /// `RESET` is reclaimed by the server once the lease expires (see
    /// [`Namespace::with_lease`]); a reaper thread sweeps expired
    /// epochs at a quarter of the lease period. `None` (the default)
    /// disables reclamation entirely.
    pub lease: Option<Duration>,
    /// Per-connection read deadline: a connection idle (or stalled
    /// mid-frame) past this duration is answered with a best-effort
    /// `ERR` and closed, so a stalled client cannot pin a handler
    /// thread forever. `None` (the default) waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Ceiling on concurrently served connections — the memory bound
    /// for the reactor engine and the thread bound for the threads
    /// engine. A connection accepted at the ceiling is answered with a
    /// best-effort `ERR` naming the limit and closed immediately;
    /// refusals are counted in the `STATS` gauges.
    pub max_conns: usize,
    /// Connection-serving engine (see [`Engine`]). Defaults to
    /// [`Engine::auto`]: `epoll` where the reactor's syscall shim
    /// exists, `threads` elsewhere.
    pub engine: Engine,
    /// Reactor worker threads ([`Engine::Epoll`] only; the threads
    /// engine ignores it). Defaults to available
    /// parallelism capped at [`DEFAULT_MAX_WORKERS`].
    pub workers: usize,
    /// Flight-recorder mode (`--trace on|off|sampled:<n>`). `Off` (the
    /// default) allocates no ring storage and records nothing; the
    /// metrics plane stays on regardless — its instruments are plain
    /// atomics.
    pub trace: TraceMode,
}

/// Cap on the default [`SvcConfig::workers`]: beyond a handful of
/// workers the namespace shards, not the event loops, are the
/// bottleneck, and idle workers still cost wake plumbing.
pub const DEFAULT_MAX_WORKERS: usize = 8;

/// The default [`SvcConfig::workers`]: available parallelism, capped
/// at [`DEFAULT_MAX_WORKERS`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(DEFAULT_MAX_WORKERS)
}

/// Default [`SvcConfig::max_conns`]: far above any load the
/// thread-per-connection server is meant for, low enough that an
/// accept storm cannot exhaust process threads or memory.
pub const DEFAULT_MAX_CONNS: usize = 1024;

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 8,
            capacity: 64,
            backend: Backend::Combined,
            listeners: 2,
            max_keys: crate::namespace::DEFAULT_MAX_KEYS,
            lease: None,
            read_timeout: None,
            max_conns: DEFAULT_MAX_CONNS,
            engine: Engine::auto(),
            workers: default_workers(),
            trace: TraceMode::Off,
        }
    }
}

/// A running arbitration server. Dropping the handle does **not** stop
/// the server; call [`Server::shutdown`] (tests, examples) or
/// [`Server::join`] (the `rtas-svc serve` CLI).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    namespace: Arc<Namespace>,
    gauges: Arc<ConnGauges>,
    metrics: Arc<SvcMetrics>,
    recorder: Arc<FlightRecorder>,
    stop: Arc<AtomicBool>,
    accepters: Vec<JoinHandle<()>>,
    pool: Option<ReactorPool>,
    reaper: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start the accept threads.
    pub fn spawn(config: SvcConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // One lane per reactor worker; the threads engine has no
        // workers, so its per-connection events share the accept lane.
        let worker_lanes = match config.engine {
            Engine::Threads => 0,
            Engine::Epoll => config.workers.max(1),
        };
        let recorder = Arc::new(FlightRecorder::new(config.trace, worker_lanes));
        let metrics = Arc::new(SvcMetrics::new(worker_lanes));
        let mut namespace = Namespace::with_lease(
            config.backend,
            config.shards,
            config.capacity,
            config.max_keys,
            config.lease,
        );
        // The namespace adopts the recorder's clock so lease deadlines
        // and trace timestamps share one origin.
        namespace.attach_recorder(Arc::clone(&recorder));
        let namespace = Arc::new(namespace);
        let stop = Arc::new(AtomicBool::new(false));
        let gauges = Arc::new(ConnGauges::default());
        // Clone every listener handle BEFORE spawning any thread: a
        // try_clone failure must abort cleanly, not leave already
        // spawned accepters running with no Server handle to stop them.
        let listeners = (0..config.listeners.max(1))
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        let read_timeout = config.read_timeout;
        let max_conns = config.max_conns.max(1);
        // The reactor engine gets its worker pool up before the first
        // accept; the threads engine spawns handlers on demand.
        let pool = match config.engine {
            Engine::Threads => None,
            Engine::Epoll => Some(ReactorPool::spawn(
                config.workers,
                &namespace,
                &gauges,
                &metrics,
                &recorder,
                &stop,
                read_timeout,
            )?),
        };
        let dispatcher = pool.as_ref().map(ReactorPool::dispatcher);
        let accepters = listeners
            .into_iter()
            .map(|listener| {
                let namespace = Arc::clone(&namespace);
                let stop = Arc::clone(&stop);
                let gauges = Arc::clone(&gauges);
                let metrics = Arc::clone(&metrics);
                let recorder = Arc::clone(&recorder);
                let dispatcher = dispatcher.clone();
                std::thread::spawn(move || match dispatcher {
                    Some(dispatcher) => accept_loop_reactor(
                        &listener,
                        &dispatcher,
                        &gauges,
                        &recorder,
                        &stop,
                        max_conns,
                    ),
                    None => accept_loop(
                        &listener,
                        &namespace,
                        &gauges,
                        &metrics,
                        &recorder,
                        &stop,
                        read_timeout,
                        max_conns,
                    ),
                })
            })
            .collect();
        // The reaper: sweep expired leases at a quarter of the lease
        // period (bounded to stay responsive to shutdown without
        // spinning), so a vanished holder wedges a key for at most
        // ~1.25 leases even with zero traffic on it.
        let reaper = config.lease.map(|lease| {
            let namespace = Arc::clone(&namespace);
            let stop = Arc::clone(&stop);
            let period = (lease / 4).clamp(Duration::from_millis(1), Duration::from_millis(250));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    namespace.reclaim_expired();
                    std::thread::sleep(period);
                }
            })
        });
        Ok(Server {
            addr,
            namespace,
            gauges,
            metrics,
            recorder,
            stop,
            accepters,
            pool,
            reaper,
        })
    }

    /// The bound address (the actual port when the config asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The namespace the server arbitrates — in-process callers (tests,
    /// examples) can inspect stats or drive keys directly.
    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.namespace
    }

    /// The accept loops' connection gauges (live / refused counts) —
    /// what a wire `STATS` reports in its last two fields.
    pub fn gauges(&self) -> &Arc<ConnGauges> {
        &self.gauges
    }

    /// The metrics plane the `METRICS` wire op renders — in-process
    /// callers can read the instruments directly.
    pub fn metrics(&self) -> &Arc<SvcMetrics> {
        &self.metrics
    }

    /// The flight recorder behind [`SvcConfig::trace`]. Disabled
    /// (`--trace off`) it records nothing and dumps empty lanes.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Dump the flight recorder's current ring contents to `path` in
    /// the `RTASTRC1` format (decode with `rtas-svc trace-dump`).
    /// Lossy by construction: each lane holds its most recent events.
    pub fn dump_trace(&self, path: &std::path::Path) -> io::Result<()> {
        self.recorder.dump_to_file(path)
    }

    /// Stop accepting and join the accept threads. Under the reactor
    /// engine the worker pool is joined too, closing every live
    /// connection; under the threads engine, established connections
    /// keep being served until their clients disconnect.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // One wake-up connection per accept thread: each accepter checks
        // the flag right after `accept` returns.
        for _ in &self.accepters {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.accepters {
            let _ = handle.join();
        }
        if let Some(pool) = self.pool {
            pool.join();
        }
        if let Some(reaper) = self.reaper {
            let _ = reaper.join();
        }
    }

    /// Block on the accept threads forever (the `serve` CLI path).
    pub fn join(self) {
        for handle in self.accepters {
            let _ = handle.join();
        }
    }
}

/// One `accept` plus the shared admission policy: returns a stream
/// whose `max_conns` slot is already claimed, or `None` when the
/// caller should `continue` (refusal, transient error) or `Err(())`
/// when it should return (stop flag).
fn accept_one(
    listener: &TcpListener,
    gauges: &ConnGauges,
    recorder: &FlightRecorder,
    stop: &AtomicBool,
    max_conns: usize,
) -> Result<Option<TcpStream>, ()> {
    let mut stream = match listener.accept() {
        Ok((stream, _)) => stream,
        Err(_) => {
            if stop.load(Ordering::SeqCst) {
                return Err(());
            }
            // Persistent accept failures (EMFILE under fd exhaustion,
            // transient ECONNABORTED) must not hot-loop a core: back
            // off briefly so workers get the cycles to drain and close
            // connections.
            std::thread::sleep(std::time::Duration::from_millis(10));
            return Ok(None);
        }
    };
    if stop.load(Ordering::SeqCst) {
        return Err(());
    }
    // Claim a connection slot optimistically; over the ceiling, undo
    // the claim, name the limit best-effort, and hang up — inline,
    // without spending a thread or a worker slot on the refusal.
    let live = gauges.connected();
    if live > max_conns as u64 {
        gauges.disconnected();
        gauges.refuse();
        recorder.record(
            Lane::Accept,
            EventKind::AdmissionRefusal,
            (live - 1) as u32,
            0,
            0,
        );
        let mut out = Vec::new();
        frame_response(
            &Response::Err(format!(
                "connection refused: server is at its {max_conns}-connection limit"
            )),
            &mut out,
        );
        let _ = stream.write_all(&out);
        return Ok(None);
    }
    recorder.record(Lane::Accept, EventKind::Accept, live as u32, 0, 0);
    Ok(Some(stream))
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    namespace: &Arc<Namespace>,
    gauges: &Arc<ConnGauges>,
    metrics: &Arc<SvcMetrics>,
    recorder: &Arc<FlightRecorder>,
    stop: &Arc<AtomicBool>,
    read_timeout: Option<Duration>,
    max_conns: usize,
) {
    loop {
        let stream = match accept_one(listener, gauges, recorder, stop, max_conns) {
            Ok(Some(stream)) => stream,
            Ok(None) => continue,
            Err(()) => return,
        };
        let namespace = Arc::clone(namespace);
        let gauges = Arc::clone(gauges);
        let metrics = Arc::clone(metrics);
        let recorder = Arc::clone(recorder);
        std::thread::spawn(move || {
            // The slot is released however the handler exits — clean
            // EOF, poisoned stream, or a panic unwinding through it.
            struct SlotGuard(Arc<ConnGauges>);
            impl Drop for SlotGuard {
                fn drop(&mut self) {
                    self.0.disconnected();
                }
            }
            let _guard = SlotGuard(Arc::clone(&gauges));
            handle_connection(
                stream,
                &namespace,
                &gauges,
                &metrics,
                &recorder,
                read_timeout,
            );
        });
    }
}

/// The reactor engine's accept loop: same socket, same admission
/// policy, but accepted connections go to a worker inbox instead of a
/// fresh thread. The worker releases the `max_conns` claim on close.
fn accept_loop_reactor(
    listener: &TcpListener,
    dispatcher: &Dispatcher,
    gauges: &Arc<ConnGauges>,
    recorder: &Arc<FlightRecorder>,
    stop: &Arc<AtomicBool>,
    max_conns: usize,
) {
    loop {
        match accept_one(listener, gauges, recorder, stop, max_conns) {
            Ok(Some(stream)) => dispatcher.dispatch(stream),
            Ok(None) => continue,
            Err(()) => return,
        }
    }
}

/// Bytes ingested per `read` call: large enough to swallow a whole
/// pipelined burst (hundreds of requests) in one syscall.
const READ_CHUNK: usize = 64 * 1024;

/// Serve one connection until EOF, a framing violation, or a read
/// deadline expiry — bulk reads in, one coalesced write per burst out.
fn handle_connection(
    mut stream: TcpStream,
    namespace: &Namespace,
    gauges: &ConnGauges,
    metrics: &SvcMetrics,
    recorder: &FlightRecorder,
    read_timeout: Option<Duration>,
) {
    // Responses are flushed in one coalesced write per burst; batching
    // that write behind Nagle would still serialize pipelined round
    // trips, so the burst must leave immediately.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(read_timeout);
    // The threads engine has no worker lanes; its per-frame events
    // share the accept lane.
    let obs = ConnObs {
        recorder,
        metrics,
        lane: Lane::Accept,
    };
    let mut conn = Connection::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // EOF (mid-frame truncation closes silently)
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                // Deadline expiry on a live stream: name it, then hang
                // up — a stalled client must not pin this thread.
                let mut out = Vec::new();
                frame_response(
                    &Response::Err("read deadline expired".to_string()),
                    &mut out,
                );
                let _ = stream.write_all(&out);
                return;
            }
            Err(_) => return,
        };
        match conn.ingest_obs(&chunk[..n], namespace, gauges, Some(&obs)) {
            ConnStatus::Open => {
                if !conn.output().is_empty() {
                    let flushed = stream.write_all(conn.output());
                    conn.clear_output();
                    if flushed.is_err() {
                        return;
                    }
                }
            }
            ConnStatus::Closed => {
                // Framing violation: flush the burst's responses plus
                // the trailing ERR best-effort, then hang up.
                let _ = stream.write_all(conn.output());
                return;
            }
        }
    }
}

/// Spawn a server on a loopback port chosen by the OS — the one-liner
/// for tests and in-process use.
pub fn spawn_local(backend: Backend, shards: usize, capacity: usize) -> io::Result<Server> {
    Server::spawn(SvcConfig {
        shards,
        capacity,
        backend,
        ..SvcConfig::default()
    })
}
