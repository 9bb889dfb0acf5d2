//! Closed-loop drivers and the layer ports they drive.
//!
//! A port is one rung of the ladder: the call a lane makes into a layer,
//! timed from just before that call to just after it. The same drivers
//! run the same streams against every port, so op `j` of lane `l` is the
//! same request on every rung.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use rtas::native::NativeRunner;
use rtas::sync::Backoff;
use rtas::TestAndSet;
use rtas_svc::protocol::{decode_response, frame_request};
use rtas_svc::{
    Client, ClientConfig, ClientError, ConnGauges, Connection, FrameDecoder, Kind, Namespace, Op,
    Response,
};

use crate::ledger::{Ack, Verdict};
use crate::workload::{Stream, LANES};

/// Nanoseconds between two instants, saturating at `u32::MAX` (4.3 s).
fn ns(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// Why an op got no answer.
pub enum Fail {
    /// The layer answered with an error; the lane carries on.
    Refused(String),
    /// The transport or the protocol broke; the lane stops.
    Broken(String),
}

impl From<ClientError> for Fail {
    fn from(e: ClientError) -> Fail {
        match e {
            ClientError::Remote(msg) => Fail::Refused(msg),
            other => Fail::Broken(other.to_string()),
        }
    }
}

/// A timed answer from a port.
pub struct Answer {
    pub won: bool,
    pub epoch: u64,
    pub start: Instant,
    /// End of the client's send, when the port is a traced client.
    pub sent: Option<Instant>,
    pub end: Instant,
}

/// One rung of the ladder.
pub trait Port: Send {
    /// Whether a lane waiting for the next epoch may busy-spin. In-process
    /// lanes spin, so both enter each epoch together and genuinely race; a
    /// client lane must yield, because the server worker needs the core.
    const SPIN_WAIT: bool = true;

    /// One test-and-set on key `id` (bytes `key`).
    fn tas(&mut self, id: u32, key: &[u8]) -> Result<Answer, Fail>;
    /// Ack the key's epoch; returns the epoch opened and the call's span.
    fn reset(&mut self, id: u32, key: &[u8]) -> Result<(u64, u32), Fail>;
}

/// `svc::Client` over loopback: the whole stack.
struct ClientPort {
    client: Client,
    traced: bool,
}

fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
    )
}

impl Port for ClientPort {
    const SPIN_WAIT: bool = false;

    fn tas(&mut self, _id: u32, key: &[u8]) -> Result<Answer, Fail> {
        let start = Instant::now();
        self.client
            .send(Op::Tas, key)
            .map_err(|e| Fail::Broken(e.to_string()))?;
        let sent = self.traced.then(Instant::now);
        let response = self.client.recv()?;
        let end = Instant::now();
        match response {
            Response::Acquired(a) => Ok(Answer {
                won: a.won,
                epoch: a.epoch,
                start,
                sent,
                end,
            }),
            Response::Err(msg) => Err(Fail::Refused(msg)),
            other => Err(Fail::Broken(format!("expected a verdict, got {other:?}"))),
        }
    }

    fn reset(&mut self, _id: u32, key: &[u8]) -> Result<(u64, u32), Fail> {
        let start = Instant::now();
        let epoch = self.client.reset(key)?;
        Ok((epoch, ns(start, Instant::now())))
    }
}

/// `svc::Connection::ingest` over an in-process namespace: decode,
/// execute and encode with no I/O.
pub struct ConnPort<'a> {
    namespace: &'a Namespace,
    gauges: &'a ConnGauges,
    conn: Connection,
    frame: Vec<u8>,
    decoder: FrameDecoder,
}

impl<'a> ConnPort<'a> {
    pub fn new(namespace: &'a Namespace, gauges: &'a ConnGauges) -> Self {
        ConnPort {
            namespace,
            gauges,
            conn: Connection::new(),
            frame: Vec::new(),
            decoder: FrameDecoder::new(),
        }
    }

    fn call(&mut self, op: Op, key: &[u8]) -> Result<(Response, Instant, Instant), Fail> {
        self.frame.clear();
        frame_request(op, key, &mut self.frame);
        let start = Instant::now();
        self.conn.ingest(&self.frame, self.namespace, self.gauges);
        let end = Instant::now();
        self.decoder.push(self.conn.output());
        self.conn.clear_output();
        let payload = self
            .decoder
            .next_frame()
            .map_err(|e| Fail::Broken(e.to_string()))?
            .ok_or_else(|| Fail::Broken("ingest produced no response".to_string()))?;
        let response = decode_response(payload).map_err(|e| Fail::Broken(e.to_string()))?;
        Ok((response, start, end))
    }
}

impl Port for ConnPort<'_> {
    fn tas(&mut self, _id: u32, key: &[u8]) -> Result<Answer, Fail> {
        match self.call(Op::Tas, key)? {
            (Response::Acquired(a), start, end) => Ok(Answer {
                won: a.won,
                epoch: a.epoch,
                start,
                sent: None,
                end,
            }),
            (Response::Err(msg), ..) => Err(Fail::Refused(msg)),
            (other, ..) => Err(Fail::Broken(format!("expected a verdict, got {other:?}"))),
        }
    }

    fn reset(&mut self, _id: u32, key: &[u8]) -> Result<(u64, u32), Fail> {
        match self.call(Op::Reset, key)? {
            (Response::Reset { epoch }, start, end) => Ok((epoch, ns(start, end))),
            (Response::Err(msg), ..) => Err(Fail::Refused(msg)),
            (other, ..) => Err(Fail::Broken(format!("expected a reset ack, got {other:?}"))),
        }
    }
}

/// `svc::Namespace::acquire` / `reset`: the keyed epoch gate.
pub struct NsPort<'a> {
    namespace: &'a Namespace,
    runner: NativeRunner,
}

impl<'a> NsPort<'a> {
    pub fn new(namespace: &'a Namespace) -> Self {
        NsPort {
            namespace,
            runner: NativeRunner::new(),
        }
    }
}

impl Port for NsPort<'_> {
    fn tas(&mut self, _id: u32, key: &[u8]) -> Result<Answer, Fail> {
        let start = Instant::now();
        let acquired = self.namespace.acquire(Kind::Tas, key, &mut self.runner);
        let end = Instant::now();
        let a = acquired.map_err(|e| Fail::Refused(e.to_string()))?;
        Ok(Answer {
            won: a.won,
            epoch: a.epoch,
            start,
            sent: None,
            end,
        })
    }

    fn reset(&mut self, _id: u32, key: &[u8]) -> Result<(u64, u32), Fail> {
        let start = Instant::now();
        let epoch = self.namespace.reset(key);
        let end = Instant::now();
        epoch
            .map(|e| (e, ns(start, end)))
            .ok_or_else(|| Fail::Refused("reset of a key that does not exist".to_string()))
    }
}

/// One `rtas::TestAndSet` per key, built on first use, with the epoch
/// count the benchmark keeps for it (the object itself has none).
pub struct CoreTable {
    capacity: usize,
    objects: Vec<OnceLock<(TestAndSet, AtomicU64)>>,
}

impl CoreTable {
    pub fn new(keys: usize, capacity: usize) -> Self {
        CoreTable {
            capacity,
            objects: (0..keys).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Registers of one object (0 before any is built).
    pub fn registers(&self) -> u64 {
        self.objects
            .iter()
            .find_map(|o| o.get())
            .map_or(0, |(tas, _)| tas.registers())
    }
}

/// `rtas::TestAndSet::test_and_set_with` / `reset`: native resolve.
pub struct CorePort<'a> {
    table: &'a CoreTable,
    runner: NativeRunner,
    /// Construction spans of the objects this lane built.
    pub build_ns: Vec<u32>,
}

impl<'a> CorePort<'a> {
    pub fn new(table: &'a CoreTable) -> Self {
        CorePort {
            table,
            runner: NativeRunner::new(),
            build_ns: Vec::new(),
        }
    }

    fn object(&mut self, id: u32) -> &'a (TestAndSet, AtomicU64) {
        let (table, build_ns) = (self.table, &mut self.build_ns);
        table.objects[id as usize].get_or_init(|| {
            let start = Instant::now();
            let tas = TestAndSet::new(table.capacity);
            build_ns.push(ns(start, Instant::now()));
            (tas, AtomicU64::new(0))
        })
    }
}

impl Port for CorePort<'_> {
    fn tas(&mut self, id: u32, _key: &[u8]) -> Result<Answer, Fail> {
        let (tas, epoch) = self.object(id);
        let epoch = epoch.load(Ordering::Acquire);
        let start = Instant::now();
        let already_set = tas.test_and_set_with(&mut self.runner);
        let end = Instant::now();
        Ok(Answer {
            won: !already_set,
            epoch,
            start,
            sent: None,
            end,
        })
    }

    fn reset(&mut self, id: u32, _key: &[u8]) -> Result<(u64, u32), Fail> {
        let (tas, epoch) = self.object(id);
        let start = Instant::now();
        tas.reset();
        let end = Instant::now();
        Ok((epoch.fetch_add(1, Ordering::AcqRel) + 1, ns(start, end)))
    }
}

/// Everything one lane saw over one range of epochs.
#[derive(Debug, Default)]
pub struct LaneLog {
    /// Per op, in stream order: issue to decoded verdict.
    pub lat_ns: Vec<u32>,
    /// Per op, traced client rungs only: the send call.
    pub send_ns: Vec<u32>,
    /// Per op, traced runs only: issue instant, ns after the run origin.
    pub start_ns: Vec<u64>,
    /// Per `RESET` this lane issued.
    pub reset_ns: Vec<u32>,
    pub verdicts: Vec<Verdict>,
    pub acks: Vec<Ack>,
    /// Traced runs only: time spent waiting for the next epoch to open.
    pub gate_wait_ns: u64,
    /// Requests issued (TAS and RESET) and requests not answered.
    pub attempted: u64,
    pub failed: u64,
    /// Frames written and the client's write syscalls, client rungs only.
    pub frames: u64,
    pub writes: u64,
    pub errors: Vec<String>,
}

impl LaneLog {
    fn with_capacity(n: usize, traced: bool) -> Self {
        let spans = if traced { n } else { 0 };
        LaneLog {
            lat_ns: Vec::with_capacity(n),
            send_ns: Vec::with_capacity(spans),
            start_ns: Vec::with_capacity(spans),
            verdicts: Vec::with_capacity(n),
            acks: Vec::with_capacity(n),
            ..LaneLog::default()
        }
    }

    fn answered(&mut self, id: u32, a: &Answer, origin: Option<Instant>) {
        self.lat_ns.push(ns(a.start, a.end));
        if let Some(origin) = origin {
            self.start_ns
                .push(a.start.duration_since(origin).as_nanos() as u64);
            if let Some(sent) = a.sent {
                self.send_ns.push(ns(a.start, sent));
            }
        }
        self.verdicts.push(Verdict {
            key: id,
            epoch: a.epoch,
            won: a.won,
        });
    }

    /// Count a failure; returns whether the lane must stop.
    fn fail(&mut self, fail: Fail) -> bool {
        self.failed += 1;
        let (msg, stop) = match fail {
            Fail::Refused(msg) => (msg, false),
            Fail::Broken(msg) => (msg, true),
        };
        if self.errors.len() < 4 {
            self.errors.push(msg);
        }
        stop
    }
}

/// Spins before a waiting in-process lane starts yielding (well past any
/// epoch's length; yielding only guards against an oversubscribed host).
const SPIN_LIMIT: u32 = 1 << 16;

fn spin(iterations: u8) {
    for _ in 0..iterations {
        std::hint::spin_loop();
    }
}

/// Drive `ports` (one per lane) over epochs `range` of `stream` in
/// lockstep: every lane issues epoch `i` once it opens; the last finisher
/// acks it, which opens epoch `i + 1`. `origin`, when given, turns
/// tracing on: spans are kept against it.
pub fn drive<P: Port>(
    ports: &mut [P],
    stream: &Stream,
    range: Range<usize>,
    origin: Option<Instant>,
) -> Vec<LaneLog> {
    let open = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let lanes = ports.len();
    thread::scope(|s| {
        let handles: Vec<_> = ports
            .iter_mut()
            .enumerate()
            .map(|(lane, port)| {
                let (open, finished, abort, range) = (&open, &finished, &abort, range.clone());
                s.spawn(move || {
                    let mut log = LaneLog::with_capacity(range.len(), origin.is_some());
                    for (i, e) in range.enumerate() {
                        if open.load(Ordering::Acquire) != i {
                            let waited = origin.map(|_| Instant::now());
                            let (mut backoff, mut spins) = (Backoff::new(), 0u32);
                            while open.load(Ordering::Acquire) != i {
                                if abort.load(Ordering::Relaxed) {
                                    return log;
                                }
                                spins += 1;
                                if P::SPIN_WAIT && spins < SPIN_LIMIT {
                                    std::hint::spin_loop();
                                } else {
                                    backoff.snooze();
                                }
                            }
                            if let Some(t) = waited {
                                log.gate_wait_ns += t.elapsed().as_nanos() as u64;
                            }
                        }
                        let id = stream.seq[e];
                        let key = stream.key(id);
                        let (late, spins) = stream.late[e];
                        if usize::from(late) == lane {
                            spin(spins);
                        }
                        log.attempted += 1;
                        let epoch = match port.tas(id, key) {
                            Ok(a) => {
                                log.answered(id, &a, origin);
                                Some(a.epoch)
                            }
                            Err(f) => {
                                if log.fail(f) {
                                    abort.store(true, Ordering::Relaxed);
                                    return log;
                                }
                                None
                            }
                        };
                        if finished.fetch_add(1, Ordering::AcqRel) + 1 == lanes {
                            finished.store(0, Ordering::Relaxed);
                            log.attempted += 1;
                            match port.reset(id, key) {
                                Ok((to, span)) => {
                                    log.reset_ns.push(span);
                                    if let Some(from) = epoch {
                                        log.acks.push(Ack { key: id, from, to });
                                    }
                                }
                                Err(f) => {
                                    if log.fail(f) {
                                        abort.store(true, Ordering::Relaxed);
                                        return log;
                                    }
                                }
                            }
                            open.store(i + 1, Ordering::Release);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    })
}

/// Drive the loopback clients, one lane each (see [`drive`]).
pub fn drive_clients(
    clients: &mut Vec<Client>,
    stream: &Stream,
    range: Range<usize>,
    origin: Option<Instant>,
) -> Vec<LaneLog> {
    let mut ports: Vec<ClientPort> = clients
        .drain(..)
        .map(|client| ClientPort {
            client,
            traced: origin.is_some(),
        })
        .collect();
    let writes0: Vec<u64> = ports.iter().map(|p| p.client.wire_writes()).collect();
    let mut logs = drive(&mut ports, stream, range, origin);
    for ((log, port), w0) in logs.iter_mut().zip(&ports).zip(writes0) {
        log.writes = port.client.wire_writes() - w0;
        log.frames = log.attempted;
    }
    clients.extend(ports.into_iter().map(|p| p.client));
    logs
}

/// Connect one client per lane.
pub fn connect_lanes(addr: std::net::SocketAddr) -> std::io::Result<Vec<Client>> {
    (0..LANES).map(|_| connect(addr)).collect()
}
