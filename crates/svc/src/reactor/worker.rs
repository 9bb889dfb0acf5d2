//! The reactor worker: one thread, one poller, many connections.
//!
//! Each worker owns a [`Poller`] (an epoll instance and its event
//! buffer), a slab of [`ConnSlot`]s indexed by the poller token, and
//! an optional [`TimerWheel`] for read deadlines. Accept threads hand
//! it fresh sockets through a mutexed inbox and wake it with one byte
//! on its wake socket (a loopback TCP pair — std exposes no pipe or
//! eventfd, and the shim stays minimal).
//!
//! The loop body is: wait for readiness → serve ready connections →
//! admit inbox arrivals → sweep the timer wheel. Serving a readable
//! connection reads until `WouldBlock` (level-triggered interest makes
//! stopping early safe), feeds every chunk to the [`Connection`] state
//! machine, then flushes its coalesced output buffer. A partial write
//! leaves `write_pos` carried across wakeups and turns on write
//! interest — per-connection backpressure without threads. Interest is
//! downgraded back to read-only the moment the buffer drains, so an
//! idle connection costs nothing but its slot.
//!
//! Lifecycle edges mirror the blocking server exactly (`tests/wire.rs`
//! pins them): a poisoned stream (framing violation) drains its
//! pending `ERR` before closing; EOF closes silently but only after
//! buffered responses flush; a read-deadline expiry answers
//! best-effort `ERR "read deadline expired"` and closes; every close
//! releases its `max_conns` slot via [`ConnGauges::disconnected`].
//!
//! Steady state allocates nothing: the read chunk, event buffers,
//! wheel slots, inbox swap vector, and each connection's decoder and
//! output buffers are all reused (`tests/alloc_reactor.rs` enforces
//! this end to end).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rtas_obs::{EventKind, FlightRecorder, Lane};

use crate::conn::{ConnGauges, ConnObs, ConnStatus, Connection};
use crate::metrics::SvcMetrics;
use crate::namespace::Namespace;
use crate::protocol::{frame_response, Response};
use crate::reactor::sys;
use crate::reactor::wheel::TimerWheel;

/// Poller token reserved for the worker's wake socket.
const WAKE_TOKEN: u64 = u64::MAX;

/// Bytes ingested per `read` call — same bulk figure as the blocking
/// server: one syscall swallows a whole pipelined burst.
const READ_CHUNK: usize = 64 * 1024;

/// Readiness events decoded per wait; also the epoll event-buffer
/// capacity. More ready connections than this simply surface on the
/// next (immediate) wait.
const EVENTS_PER_WAIT: usize = 1024;

/// One decoded readiness report. There is no `writable`
/// flag: the worker attempts a flush on *every* event for a
/// connection, so write readiness only needs the token delivered.
#[derive(Debug, Clone, Copy)]
struct Event {
    token: u64,
    readable: bool,
}

/// The readiness source: an epoll instance plus its reused event
/// buffer, so waiting allocates nothing.
#[derive(Debug)]
struct Poller {
    ep: sys::EpollFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    fn new() -> io::Result<Poller> {
        Ok(Poller {
            ep: sys::EpollFd::new()?,
            buf: Vec::with_capacity(EVENTS_PER_WAIT),
        })
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = 0;
        if readable {
            bits |= sys::EPOLLIN;
        }
        if writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ep.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ep.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ep.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (< 0: indefinitely) and decode readiness
    /// into `events`. An `EINTR` simply yields zero events. Error and
    /// hangup conditions are folded into both readiness flags so the
    /// next read/write discovers and classifies them.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        match self.ep.wait(&mut self.buf, timeout_ms) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        }
        for ev in self.buf.iter() {
            let bits = { ev.events };
            let trouble = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.push(Event {
                token: { ev.data },
                readable: bits & sys::EPOLLIN != 0 || trouble,
            });
        }
        Ok(())
    }
}

/// One served connection's reactor-side state: the socket, the
/// protocol state machine, and the write-backpressure cursor.
#[derive(Debug)]
struct ConnSlot {
    stream: TcpStream,
    conn: Connection,
    /// First unwritten byte of `conn.output()` — the partial-write
    /// carryover. Nonzero only while write interest is on.
    write_pos: usize,
    /// Registered read interest (off once draining).
    want_read: bool,
    /// Registered write interest (on only while output is unflushed).
    want_write: bool,
    /// No more ingest — flush what remains, then close. Set by a
    /// framing poison or by EOF with responses still buffered.
    draining: bool,
    /// Refreshed on every successful read; the wheel checks
    /// `last_activity + read_timeout` lazily.
    last_activity: Instant,
    /// Generation of this slab index, matched against wheel entries.
    gen: u32,
}

/// What the sockets said a connection should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

/// A loopback TCP pair: `rx` lives in the worker's poller, `tx` with
/// the dispatcher. One written byte = one wakeup (coalesced freely).
pub(super) fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, peer) = listener.accept()?;
    // An unrelated local connector racing onto the port would wedge
    // the pair; verify we accepted our own connect.
    if peer != tx.local_addr()? {
        return Err(io::Error::other("wake pair cross-connected"));
    }
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

/// Everything one worker thread owns. Built on the spawning thread so
/// poller creation errors surface from `Server::spawn`, then moved.
#[derive(Debug)]
pub(super) struct Worker {
    poller: Poller,
    /// This worker's position in the pool — selects its flight-recorder
    /// lane and its `reactor.worker<k>.*` gauges.
    index: usize,
    wake_rx: TcpStream,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    namespace: Arc<Namespace>,
    gauges: Arc<ConnGauges>,
    metrics: Arc<SvcMetrics>,
    recorder: Arc<FlightRecorder>,
    /// Serve calls on this worker — the sequence the read/write stage
    /// sampling gate runs on (per-frame stages sample on the
    /// connection's own frame counter instead).
    serves: u64,
    stop: Arc<AtomicBool>,
    read_timeout: Option<Duration>,
    wheel: Option<TimerWheel>,
    slab: Vec<Option<ConnSlot>>,
    /// Free slab indices, reused LIFO.
    free: Vec<usize>,
    /// Per-index generation, bumped on close to invalidate wheel
    /// entries pointing at a recycled slot.
    gens: Vec<u32>,
    events: Vec<Event>,
    chunk: Vec<u8>,
    /// Swap target for the inbox mutex — admissions move the arrival
    /// vector wholesale instead of popping under the lock.
    incoming: Vec<TcpStream>,
    /// Scratch for wheel sweeps.
    due: Vec<(u32, u32)>,
    /// The pre-framed deadline-expiry `ERR`, written best-effort.
    deadline_err: Vec<u8>,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        index: usize,
        wake_rx: TcpStream,
        inbox: Arc<Mutex<Vec<TcpStream>>>,
        namespace: Arc<Namespace>,
        gauges: Arc<ConnGauges>,
        metrics: Arc<SvcMetrics>,
        recorder: Arc<FlightRecorder>,
        stop: Arc<AtomicBool>,
        read_timeout: Option<Duration>,
    ) -> io::Result<Worker> {
        let mut poller = Poller::new()?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)?;
        let now = Instant::now();
        let mut deadline_err = Vec::new();
        frame_response(
            &Response::Err("read deadline expired".to_string()),
            &mut deadline_err,
        );
        Ok(Worker {
            poller,
            index,
            wake_rx,
            inbox,
            namespace,
            gauges,
            metrics,
            recorder,
            serves: 0,
            stop,
            read_timeout,
            wheel: read_timeout.map(|t| TimerWheel::new(t, now)),
            slab: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            events: Vec::with_capacity(EVENTS_PER_WAIT),
            chunk: vec![0u8; READ_CHUNK],
            incoming: Vec::new(),
            due: Vec::new(),
            deadline_err,
        })
    }

    /// The event loop; returns only when the stop flag is up.
    pub(super) fn run(mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                self.teardown();
                return;
            }
            let timeout_ms = match self
                .wheel
                .as_ref()
                .and_then(|w| w.next_timeout(Instant::now()))
            {
                // Ceil to a whole ms so a deadline 0.3ms out doesn't
                // busy-spin on zero-timeout waits.
                Some(d) => i32::try_from(d.as_millis().saturating_add(1)).unwrap_or(i32::MAX),
                None => -1,
            };
            let Worker { poller, events, .. } = &mut self;
            if poller.wait(events, timeout_ms).is_err() {
                // A failed wait (e.g. fd pressure) must not hot-loop.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            if !self.events.is_empty() {
                self.recorder.record(
                    Lane::Worker(self.index),
                    EventKind::ReadinessWakeup,
                    self.events.len() as u32,
                    0,
                    0,
                );
            }
            for at in 0..self.events.len() {
                let ev = self.events[at];
                if ev.token == WAKE_TOKEN {
                    self.drain_wake();
                } else {
                    self.serve(ev);
                }
            }
            self.admit_pending();
            self.sweep_deadlines();
        }
    }

    /// Serve one ready connection: bulk-read and ingest while readable,
    /// then flush and settle interest.
    fn serve(&mut self, ev: Event) {
        let idx = ev.token as usize;
        // The read/write stage-timing gate: one decision per serve
        // call, on the worker's own serve sequence (per-frame stages
        // sample on the connection's frame counter inside `ingest_obs`).
        let timed = self.recorder.enabled() && self.recorder.sample_hit(self.serves);
        self.serves = self.serves.wrapping_add(1);
        let Some(slot) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            // Closed earlier in this same batch; stale report.
            return;
        };
        let mut eof = false;
        let mut verdict = Verdict::Keep;
        if ev.readable && !slot.draining {
            let t0 = if timed {
                Some(self.recorder.now_ns())
            } else {
                None
            };
            loop {
                match slot.stream.read(&mut self.chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        slot.last_activity = Instant::now();
                        let obs = ConnObs {
                            recorder: &self.recorder,
                            metrics: &self.metrics,
                            lane: Lane::Worker(self.index),
                        };
                        let status = slot.conn.ingest_obs(
                            &self.chunk[..n],
                            &self.namespace,
                            &self.gauges,
                            Some(&obs),
                        );
                        if status == ConnStatus::Closed {
                            // Poisoned: no more reads; drain the ERR.
                            slot.draining = true;
                            break;
                        }
                        if n < self.chunk.len() {
                            // Short read: the socket is almost surely
                            // dry. If not, level-triggered interest
                            // re-reports it on the next wait.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        verdict = Verdict::Close;
                        break;
                    }
                }
            }
            if let Some(t0) = t0 {
                let spent = self.recorder.now_ns().saturating_sub(t0);
                self.metrics.stage_read.record(spent as f64);
            }
        }
        if verdict == Verdict::Close {
            self.close(idx);
            return;
        }
        self.flush(idx, eof, timed);
    }

    /// Flush as much of the coalesced output as the socket accepts,
    /// carry the remainder via `write_pos`, and reconcile poller
    /// interest with what is left to do. `eof` records that the read
    /// side just ended: close once (and only once) output is drained.
    /// `timed` is the serve call's stage-sampling verdict — when up and
    /// there is output to push, the write loop lands one
    /// `stage.write_ns` sample.
    fn flush(&mut self, idx: usize, eof: bool, timed: bool) {
        let Some(slot) = self.slab.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let t0 = if timed && slot.write_pos < slot.conn.output().len() {
            Some(self.recorder.now_ns())
        } else {
            None
        };
        let mut verdict = Verdict::Keep;
        loop {
            let pending = &slot.conn.output()[slot.write_pos..];
            if pending.is_empty() {
                break;
            }
            match slot.stream.write(pending) {
                Ok(0) => {
                    verdict = Verdict::Close;
                    break;
                }
                Ok(n) => slot.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    verdict = Verdict::Close;
                    break;
                }
            }
        }
        if let Some(t0) = t0 {
            let spent = self.recorder.now_ns().saturating_sub(t0);
            self.metrics.stage_write.record(spent as f64);
        }
        if verdict == Verdict::Keep {
            if slot.write_pos == slot.conn.output().len() {
                if slot.write_pos > 0 {
                    slot.conn.clear_output();
                    slot.write_pos = 0;
                }
                if slot.draining || eof {
                    // Poison ERR delivered, or EOF with nothing left
                    // to say: hang up.
                    verdict = Verdict::Close;
                } else {
                    if slot.want_write {
                        // Backpressure released: the carried output
                        // drained and write interest comes off.
                        self.recorder.record(
                            Lane::Worker(self.index),
                            EventKind::BackpressureOff,
                            idx as u32,
                            0,
                            0,
                        );
                    }
                    let (read, write) = (true, false);
                    if (slot.want_read, slot.want_write) != (read, write) {
                        let _ =
                            self.poller
                                .modify(slot.stream.as_raw_fd(), idx as u64, read, write);
                        (slot.want_read, slot.want_write) = (read, write);
                    }
                }
            } else {
                // Backpressure: output remains. EOF here still waits —
                // buffered responses belong to the client.
                self.metrics.carryovers.inc();
                if !slot.want_write {
                    let carried = slot.conn.output().len() - slot.write_pos;
                    self.recorder.record(
                        Lane::Worker(self.index),
                        EventKind::BackpressureOn,
                        idx as u32,
                        carried as u64,
                        0,
                    );
                }
                if eof {
                    slot.draining = true;
                }
                let (read, write) = (!slot.draining, true);
                if (slot.want_read, slot.want_write) != (read, write) {
                    let _ = self
                        .poller
                        .modify(slot.stream.as_raw_fd(), idx as u64, read, write);
                    (slot.want_read, slot.want_write) = (read, write);
                }
            }
        }
        if verdict == Verdict::Close {
            self.close(idx);
        }
    }

    /// Release a slot: deregister, bump the generation (invalidating
    /// wheel entries), return the `max_conns` claim, drop the socket.
    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.slab[idx].take() {
            let _ = self.poller.deregister(slot.stream.as_raw_fd());
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.gauges.disconnected();
            if let Some(live) = self.metrics.slab_live.get(self.index) {
                live.sub(1);
            }
        }
    }

    /// Swallow queued wake bytes. The actual work (inbox, stop flag)
    /// is handled by the loop body right after event processing.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return, // dispatcher gone; stop flag decides
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Move arrivals out of the inbox and register each one. The
    /// accept loop already claimed their `max_conns` slots.
    fn admit_pending(&mut self) {
        {
            let mut inbox = match self.inbox.lock() {
                Ok(inbox) => inbox,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::swap(&mut *inbox, &mut self.incoming);
        }
        // Pop (not drain/take) so `incoming` keeps its capacity for
        // the next swap; batch-internal order is irrelevant.
        while let Some(stream) = self.incoming.pop() {
            self.admit(stream);
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Same transport posture as the blocking server: coalesced
        // burst writes must leave immediately, reads must not block.
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            self.gauges.disconnected();
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(None);
                self.gens.push(0);
                self.slab.len() - 1
            }
        };
        if self
            .poller
            .register(stream.as_raw_fd(), idx as u64, true, false)
            .is_err()
        {
            self.free.push(idx);
            self.gauges.disconnected();
            return;
        }
        let now = Instant::now();
        let gen = self.gens[idx];
        if let (Some(wheel), Some(timeout)) = (self.wheel.as_mut(), self.read_timeout) {
            wheel.schedule(idx as u32, gen, now + timeout);
        }
        self.slab[idx] = Some(ConnSlot {
            stream,
            conn: Connection::new(),
            write_pos: 0,
            want_read: true,
            want_write: false,
            draining: false,
            last_activity: now,
            gen,
        });
        if let Some(live) = self.metrics.slab_live.get(self.index) {
            live.add(1);
        }
    }

    /// Surface possibly-due wheel entries and expire the genuinely
    /// overdue ones with a best-effort `ERR`, exactly like the
    /// blocking server's read-timeout path.
    fn sweep_deadlines(&mut self) {
        let Some(timeout) = self.read_timeout else {
            return;
        };
        let Some(mut wheel) = self.wheel.take() else {
            return;
        };
        let now = Instant::now();
        self.due.clear();
        wheel.advance(now, &mut self.due);
        let surfaced = self.due.len();
        for at in 0..self.due.len() {
            let (idx32, gen) = self.due[at];
            let idx = idx32 as usize;
            let expired = match self.slab.get_mut(idx).and_then(Option::as_mut) {
                Some(slot) if slot.gen == gen => {
                    let deadline = slot.last_activity + timeout;
                    if now >= deadline {
                        let _ = slot.stream.write(&self.deadline_err);
                        true
                    } else {
                        // Activity since scheduling: rearm at the real
                        // deadline (the lazy-wheel contract).
                        wheel.schedule(idx32, gen, deadline);
                        false
                    }
                }
                // A stale entry for a closed (and possibly recycled)
                // slot: drop it.
                _ => false,
            };
            if expired {
                self.close(idx);
            }
        }
        if let Some(entries) = self.metrics.wheel_entries.get(self.index) {
            entries.set(wheel.len() as u64);
        }
        if surfaced > 0 {
            // Only sweeps that surfaced work are worth a ring slot —
            // an every-wakeup heartbeat would evict useful events.
            self.recorder.record(
                Lane::Worker(self.index),
                EventKind::TimerSweep,
                surfaced as u32,
                wheel.len() as u64,
                0,
            );
        }
        self.wheel = Some(wheel);
    }

    /// Shutdown: close every live connection and any arrival still in
    /// the inbox — each carries a claimed `max_conns` slot to return.
    fn teardown(&mut self) {
        for idx in 0..self.slab.len() {
            self.close(idx);
        }
        let pending = {
            let mut inbox = match self.inbox.lock() {
                Ok(inbox) => inbox,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *inbox)
        };
        for stream in pending {
            drop(stream);
            self.gauges.disconnected();
        }
    }
}
