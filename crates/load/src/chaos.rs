//! Deterministic hostile-network fault injection, driven against a
//! live server.
//!
//! The paper's guarantees are *adversarial*: safety and expected step
//! complexity hold against a strong adaptive scheduler. This module
//! brings the same adversary to the wire. It perturbs the load
//! harness's client traffic with delays, connection drops, frame
//! truncation, pipeline reordering, stalled epoch holders, and
//! byzantine `RESET` acks (skipped or duplicated), while keeping the
//! whole schedule **deterministic**: every fault is drawn from
//! [`SplitMix64`] streams split from one seed, so the same
//! `(seed, spec)` pair replays a bit-identical fault schedule, exactly
//! like the driver's [`ArrivalSchedule`]. All of it runs on the client
//! side; the server only sees the fallout.
//!
//! * [`ChaosSpec`] — the fault mix, parsed from the CLI grammar
//!   `k=v,k=v,...` or one of the named presets (`clean`, `delay-only`,
//!   `drop-heavy`, `byzantine-reset`);
//! * [`FaultPlan`] — the deterministic schedule: a per-connection
//!   stream ([`FaultPlan::for_connection`]) drawing one [`OpFaults`]
//!   per operation in a fixed order, plus [`FaultPlan::reset_faults`],
//!   a *pure function* of `(seed, shard, epoch)`;
//! * [`ChaosTarget`] — [`RemoteTarget`] semantics (the same `load/s`
//!   keys; `acquire` is a `TAS`, and `recycle`, run by the driver's
//!   epoch turn on the epoch's last finisher, is the `RESET` ack) with
//!   every wire interaction passing through a worker's [`ChaosCtx`],
//!   which applies the faults and classifies the fallout into
//!   [`ChaosCounts`].
//!
//! Worker connection `c` replays fault stream `c`, and the `RESET` ack
//! for `(shard, local epoch)` draws its byzantine faults from those
//! coordinates, never from which racing worker sends it, so the entire
//! fault schedule is a function of `(seed, spec, workload)` alone.
//! Local epochs are the turn's, and count from 0 in every run. They
//! always advance, even when the plan skips the server ack, so workers
//! never deadlock on a stranded server epoch.
//!
//! Under faults the *local* win accounting legitimately degrades — a
//! skipped ack strands a server epoch whose later arrivals all lose,
//! and a lease reclamation can split one local epoch across two
//! server epochs, so local wins per local epoch may be 0 or even 2.
//! What can never degrade is the server-side bar: **at most one
//! winner per key-epoch**. [`ChaosTarget`] enforces it fail-fast — a
//! per-shard map of observed winning server epochs panics the run on
//! any second winner — and [`run_load_chaos`] folds the client-side
//! fault counters plus the server's reclaimed-slot delta into the
//! outcome's [`ErrorClasses`].
//!
//! [`ArrivalSchedule`]: crate::schedule::ArrivalSchedule
//! [`RemoteTarget`]: crate::remote::RemoteTarget

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtas::sim::rng::SplitMix64;
use rtas_svc::obs::FlightRecorder;
use rtas_svc::protocol::frame_request_span;
use rtas_svc::{Acquired, Client, ClientConfig, ClientError, Op};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};
use crate::recorder::ErrorClasses;
use crate::remote::{bind_keys, negotiate_trace, ClientTracer};

/// Probabilities and magnitudes of every fault class. Probabilities
/// are in `[0, 1]`; a zero disables that class entirely (and its
/// draws still happen, so toggling one class never shifts another's
/// schedule — see [`FaultPlan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Probability an operation is delayed before its request is sent.
    pub delay_p: f64,
    /// Ceiling on the injected delay; the actual delay is uniform in
    /// `[0, delay_max)`.
    pub delay_max: Duration,
    /// Probability the connection is severed right after an operation
    /// completes (mid-epoch from the protocol's point of view: any
    /// slot the connection holds is abandoned without an ack).
    pub drop_p: f64,
    /// Probability a request frame is sent truncated (the server must
    /// time the stall out or see the next connection close; either
    /// way the stream dies and the client redials).
    pub truncate_p: f64,
    /// Probability an operation is pipelined together with the next
    /// one in a reordered batch (the *frames* are reordered relative
    /// to program order; the server still answers in arrival order).
    pub reorder_p: f64,
    /// Probability a *winning* operation stalls — holds its epoch slot
    /// for `stall` before acking, exercising the server lease.
    pub stall_p: f64,
    /// How long a stalling holder sleeps.
    pub stall: Duration,
    /// Probability a due `RESET` ack is byzantinely skipped (the epoch
    /// is abandoned; only the server lease can retire it).
    pub skip_reset_p: f64,
    /// Probability a `RESET` ack is byzantinely duplicated (sent
    /// twice; the server's zero-admission guard makes the replay a
    /// no-op).
    pub dup_reset_p: f64,
}

impl Default for ChaosSpec {
    /// The `clean` preset: every fault disabled.
    fn default() -> Self {
        ChaosSpec {
            delay_p: 0.0,
            delay_max: Duration::from_micros(500),
            drop_p: 0.0,
            truncate_p: 0.0,
            reorder_p: 0.0,
            stall_p: 0.0,
            stall: Duration::from_millis(5),
            skip_reset_p: 0.0,
            dup_reset_p: 0.0,
        }
    }
}

impl ChaosSpec {
    /// The named presets the CLI and CI cells use.
    pub fn preset(name: &str) -> Option<ChaosSpec> {
        let mut spec = ChaosSpec::default();
        match name {
            "clean" => {}
            "delay-only" => {
                spec.delay_p = 0.25;
                spec.delay_max = Duration::from_micros(200);
            }
            "drop-heavy" => {
                spec.delay_p = 0.05;
                spec.delay_max = Duration::from_micros(100);
                spec.drop_p = 0.02;
                spec.truncate_p = 0.01;
                spec.reorder_p = 0.05;
            }
            "byzantine-reset" => {
                spec.delay_p = 0.05;
                spec.delay_max = Duration::from_micros(100);
                spec.stall_p = 0.02;
                spec.stall = Duration::from_millis(2);
                spec.skip_reset_p = 0.05;
                spec.dup_reset_p = 0.10;
            }
            _ => return None,
        }
        Some(spec)
    }

    /// Parse the CLI grammar: a preset name, or `k=v` pairs separated
    /// by commas over the keys `delay`, `delay-max-us`, `drop`,
    /// `truncate`, `reorder`, `stall`, `stall-ms`, `skip-reset`,
    /// `dup-reset` (probabilities as floats in `[0,1]`, durations as
    /// integers). Pairs may follow a preset to override it:
    /// `drop-heavy,drop=0.1`.
    pub fn parse(s: &str) -> Result<ChaosSpec, String> {
        let mut spec = ChaosSpec::default();
        for (i, part) in s.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if let Some(preset) = ChaosSpec::preset(part) {
                if i != 0 {
                    return Err(format!("preset '{part}' must come first in a chaos spec"));
                }
                spec = preset;
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected preset or k=v, got '{part}'"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("'{v}' is not a probability"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("'{v}' is not an integer"))
            };
            match key.trim() {
                "delay" => spec.delay_p = prob(value)?,
                "delay-max-us" => spec.delay_max = Duration::from_micros(int(value)?),
                "drop" => spec.drop_p = prob(value)?,
                "truncate" => spec.truncate_p = prob(value)?,
                "reorder" => spec.reorder_p = prob(value)?,
                "stall" => spec.stall_p = prob(value)?,
                "stall-ms" => spec.stall = Duration::from_millis(int(value)?),
                "skip-reset" => spec.skip_reset_p = prob(value)?,
                "dup-reset" => spec.dup_reset_p = prob(value)?,
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay={},delay-max-us={},drop={},truncate={},reorder={},\
             stall={},stall-ms={},skip-reset={},dup-reset={}",
            self.delay_p,
            self.delay_max.as_micros(),
            self.drop_p,
            self.truncate_p,
            self.reorder_p,
            self.stall_p,
            self.stall.as_millis(),
            self.skip_reset_p,
            self.dup_reset_p,
        )
    }
}

/// The faults drawn for one operation, in program order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpFaults {
    /// Sleep this long before sending the request (zero: no delay).
    pub delay: Duration,
    /// Send the request frame truncated; the connection is then dead.
    pub truncate: bool,
    /// Pipeline this request reordered with the connection's next one.
    pub reorder: bool,
    /// If this operation wins, hold the slot this long before acking.
    pub stall: Option<Duration>,
    /// Sever the connection after the operation completes.
    pub drop_after: bool,
}

/// The faults for one `RESET` ack — a pure function of
/// `(seed, shard, epoch)`, NOT of which worker sends it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResetFaults {
    /// Byzantinely skip the ack: abandon the epoch to the lease.
    pub skip: bool,
    /// Byzantinely send the ack twice.
    pub duplicate: bool,
}

/// A deterministic fault schedule: the spec plus the root seed.
///
/// Each connection gets its own SplitMix64 stream
/// ([`FaultPlan::for_connection`]) whose draws happen in a **fixed
/// order on every operation** — every class's random numbers are
/// consumed whether or not the class is enabled, so changing one
/// probability never shifts another class's schedule, and re-running
/// with the same seed replays the schedule bit-identically.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: ChaosSpec,
    seed: u64,
}

/// Per-connection fault stream: draws [`OpFaults`] one operation at a
/// time. Obtained from [`FaultPlan::for_connection`].
#[derive(Debug)]
pub struct ConnectionPlan {
    spec: ChaosSpec,
    rng: SplitMix64,
}

impl FaultPlan {
    /// A plan replaying `spec` from `seed`.
    pub fn new(spec: ChaosSpec, seed: u64) -> Self {
        FaultPlan { spec, seed }
    }

    /// The fault stream for connection `conn` (stable ids: the load
    /// harness numbers worker connections 0..). Streams are split from
    /// the root seed, so they are mutually independent and each
    /// replayable in isolation.
    pub fn for_connection(&self, conn: u64) -> ConnectionPlan {
        ConnectionPlan {
            spec: self.spec.clone(),
            rng: SplitMix64::split(self.seed, conn),
        }
    }

    /// The byzantine faults for the `RESET` ack of `(shard, epoch)`.
    ///
    /// Deliberately a pure function of the *epoch coordinates*: under
    /// contention the identity of the acking worker is a race, and
    /// hanging the draw off the worker's stream would make the global
    /// fault schedule nondeterministic. Off the coordinates it is
    /// replayable regardless of thread interleaving.
    pub fn reset_faults(&self, shard: u64, epoch: u64) -> ResetFaults {
        // A distinct stream family from connections: tag the index
        // space so `shard` ids can never collide with `conn` ids.
        let mut rng = SplitMix64::split(self.seed ^ 0x5245_5345_545F_4358, shard);
        // Jump to this epoch's draw pair without materializing the
        // prefix: re-split by epoch (cheap, stateless, deterministic).
        let mut rng = SplitMix64::split(rng.next_u64(), epoch);
        let skip = rng.bernoulli(self.spec.skip_reset_p);
        let duplicate = rng.bernoulli(self.spec.dup_reset_p);
        ResetFaults {
            skip,
            duplicate: duplicate && !skip,
        }
    }
}

impl ConnectionPlan {
    /// Draw the next operation's faults. Every class draws exactly
    /// once, unconditionally and in declaration order — the fixed-
    /// order contract that keeps schedules stable across spec tweaks.
    pub fn next_op(&mut self) -> OpFaults {
        let delay_roll = self.rng.bernoulli(self.spec.delay_p);
        let delay_ns = {
            let max = self.spec.delay_max.as_nanos().min(u64::MAX as u128) as u64;
            if max == 0 {
                0
            } else {
                self.rng.next_below(max)
            }
        };
        let truncate = self.rng.bernoulli(self.spec.truncate_p);
        let reorder = self.rng.bernoulli(self.spec.reorder_p);
        let stall_roll = self.rng.bernoulli(self.spec.stall_p);
        let drop_after = self.rng.bernoulli(self.spec.drop_p);
        OpFaults {
            delay: if delay_roll {
                Duration::from_nanos(delay_ns)
            } else {
                Duration::ZERO
            },
            truncate,
            reorder,
            stall: stall_roll.then_some(self.spec.stall),
            drop_after,
        }
    }
}

/// Cumulative fault / recovery counters, per connection or merged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Operations delayed before send.
    pub delays: u64,
    /// Connections severed by the plan (drop or truncation fallout).
    pub drops: u64,
    /// Request frames sent truncated.
    pub truncations: u64,
    /// Operation pairs sent as a reordered pipeline batch.
    pub reorders: u64,
    /// Winning operations that stalled holding their slot.
    pub stalls: u64,
    /// `RESET` acks byzantinely skipped.
    pub skipped_resets: u64,
    /// `RESET` acks byzantinely duplicated.
    pub dup_resets: u64,
    /// Transport-level timeouts observed (read/write/connect).
    pub timeouts: u64,
    /// Operations retried after a transport failure.
    pub retries: u64,
    /// Successful redials.
    pub reconnects: u64,
}

impl ChaosCounts {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &ChaosCounts) {
        self.delays += other.delays;
        self.drops += other.drops;
        self.truncations += other.truncations;
        self.reorders += other.reorders;
        self.stalls += other.stalls;
        self.skipped_resets += other.skipped_resets;
        self.dup_resets += other.dup_resets;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
    }

    /// Total injected faults (not counting recovery actions).
    pub fn injected(&self) -> u64 {
        self.delays
            + self.drops
            + self.truncations
            + self.reorders
            + self.stalls
            + self.skipped_resets
            + self.dup_resets
    }
}

/// Tries per chaotic operation, the first one included, before a
/// worker gives up.
const RETRY_ATTEMPTS: u32 = 8;
/// Nominal backoff before the first retry.
const RETRY_BASE: Duration = Duration::from_millis(1);
/// Ceiling on any single backoff.
const RETRY_CAP: Duration = Duration::from_millis(200);

/// The sleep before (0-based) retry `attempt`: bounded, full-jitter
/// exponential backoff. It is `exp/2 + uniform(0..exp/2)` where
/// `exp = min(RETRY_CAP, RETRY_BASE << attempt)` — the classic "full
/// jitter" scheme that decorrelates a thundering herd of retrying
/// clients while keeping the expected wait growing exponentially.
/// `jitter` must be a stream of its own: retries are timing-dependent,
/// and must not shift the deterministic fault schedule.
fn backoff(attempt: u32, jitter: &mut SplitMix64) -> Duration {
    let base_ns = RETRY_BASE.as_nanos() as u64;
    let cap_ns = RETRY_CAP.as_nanos() as u64;
    let exp = base_ns
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(cap_ns);
    let half = exp / 2;
    let extra = if half == 0 {
        0
    } else {
        jitter.next_below(half)
    };
    Duration::from_nanos(half + extra)
}

/// Per-shard safety ledger: the winning *server* epochs observed, with
/// a fail-fast panic on any second winner for one epoch.
#[derive(Debug, Default)]
struct WinLedger {
    /// server epoch → how many wins observed (must stay ≤ 1).
    wins: Mutex<HashMap<u64, u64>>,
}

/// An `rtas-svc` server behind the fault-injection layer, as a
/// [`LoadTarget`]. Reports as `BENCH_svc_chaos.json`
/// (`backend=chaos`).
#[derive(Debug)]
pub struct ChaosTarget {
    addr: String,
    plan: FaultPlan,
    config: ClientConfig,
    keys: Vec<Vec<u8>>,
    ledgers: Vec<WinLedger>,
    /// Next worker connection id — handed out in `context()` call
    /// order. The driver creates the initial fleet's contexts
    /// sequentially on the main thread, so ids (and therefore fault
    /// streams) are stable run to run.
    next_conn: AtomicU64,
    /// Fault/recovery counters folded in as worker contexts retire.
    counts: Arc<Mutex<ChaosCounts>>,
    registers: u64,
    /// Client-side flight recorder ([`ChaosTarget::with_recorder`]):
    /// when set, every worker context stamps its wire attempts with
    /// fresh trace spans.
    recorder: Option<Arc<FlightRecorder>>,
}

impl ChaosTarget {
    /// Bind `shards` keys on the server at `addr` behind `plan`'s
    /// faults. The key-binding probe it shares with
    /// [`RemoteTarget::new`](crate::remote::RemoteTarget::new) runs on a
    /// *clean* client — the fault schedule starts with worker
    /// connection 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(
        addr: &str,
        shards: usize,
        plan: FaultPlan,
        config: ClientConfig,
    ) -> Result<ChaosTarget, ClientError> {
        assert!(shards >= 1, "chaos target needs at least one shard key");
        let (keys, registers) = bind_keys(addr, config.clone(), shards)?;
        Ok(ChaosTarget {
            addr: addr.to_string(),
            plan,
            config,
            ledgers: (0..shards).map(|_| WinLedger::default()).collect(),
            next_conn: AtomicU64::new(0),
            counts: Arc::new(Mutex::new(ChaosCounts::default())),
            keys,
            registers,
            recorder: None,
        })
    }

    /// Attach a client-side flight recorder: every worker context
    /// stamps each wire attempt (retries included — each attempt mints
    /// a fresh span) and records `ClientSpan` events on its
    /// connection's lane. Negotiates first with a traced `STATS` probe,
    /// as [`RemoteTarget::with_recorder`] does; an old server keeps
    /// tracing detached with a warning, never an error.
    ///
    /// [`RemoteTarget::with_recorder`]: crate::remote::RemoteTarget::with_recorder
    ///
    /// # Errors
    ///
    /// Fails only if the negotiation probe cannot reach the server.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
    ) -> Result<ChaosTarget, ClientError> {
        self.recorder = negotiate_trace(&self.addr, self.config.clone(), recorder)?;
        Ok(self)
    }

    /// The fault/recovery counters accumulated so far (complete once
    /// the run's workers have retired their contexts).
    pub fn counts(&self) -> ChaosCounts {
        *self.counts.lock().unwrap()
    }

    /// The winning server epochs observed per shard, sorted — the
    /// "winner set" two same-seed runs must agree on when the fault
    /// schedule is timing-independent (e.g. the delay-only cell).
    pub fn winner_epochs(&self) -> Vec<Vec<u64>> {
        self.ledgers
            .iter()
            .map(|ledger| {
                let mut epochs: Vec<u64> = ledger.wins.lock().unwrap().keys().copied().collect();
                epochs.sort_unstable();
                epochs
            })
            .collect()
    }
}

/// One worker's fault-injecting connection.
///
/// Applies its [`ConnectionPlan`]'s faults to real traffic and absorbs
/// the fallout: a severed, truncated or desynchronized connection is
/// dropped and redialed, up to 8 tries per operation, with jittered
/// exponential backoff drawn from a stream **separate** from the fault
/// stream (retries are timing-dependent and must not shift the
/// deterministic fault schedule). Its counters merge into the target's
/// on drop (worker retirement).
///
/// With a client tracer every wire attempt carries a **fresh** trace
/// span — a retry is a new attempt and mints a new span, so a client
/// span can never pair with more than one server span. Span minting is
/// pure arithmetic on the tracer's own counter: it never draws from the
/// fault or jitter streams, so traced and untraced runs replay the
/// **bit-identical** fault schedule from the same seed. On reordered
/// (and duplicated ack) batches only the *first* frame carries the
/// span; the second is deliberately untraced for the same
/// ≤1-server-span reason.
#[derive(Debug)]
pub struct ChaosCtx {
    addr: String,
    config: ClientConfig,
    client: Option<Client>,
    /// Whether a connection has ever been established: any later
    /// successful dial is a *re*connect in the counters.
    ever_connected: bool,
    plan: ConnectionPlan,
    jitter: SplitMix64,
    counts: ChaosCounts,
    tracer: Option<ClientTracer>,
    sink: Arc<Mutex<ChaosCounts>>,
}

impl Drop for ChaosCtx {
    fn drop(&mut self) {
        // A poisoned sink means a worker already panicked and the run
        // is failing; do not panic again while unwinding.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.counts);
        }
    }
}

impl ChaosCtx {
    /// Connection `conn` of `plan`, dialing `addr` lazily; its counters
    /// merge into `sink` on drop.
    fn new(
        addr: &str,
        plan: &FaultPlan,
        conn: u64,
        config: ClientConfig,
        tracer: Option<ClientTracer>,
        sink: Arc<Mutex<ChaosCounts>>,
    ) -> ChaosCtx {
        ChaosCtx {
            addr: addr.to_string(),
            config,
            client: None,
            ever_connected: false,
            // Jitter stream: same root, disjoint tagged index space.
            jitter: SplitMix64::split(plan.seed ^ 0x4A49_5454_4552_5F43, conn),
            plan: plan.for_connection(conn),
            counts: ChaosCounts::default(),
            tracer,
            sink,
        }
    }

    /// A fresh span for the next wire attempt, or 0 (untraced) when no
    /// live tracer is attached. Pure arithmetic — no RNG.
    fn mint_span(&mut self) -> u64 {
        match self.tracer.as_mut() {
            Some(t) if t.enabled() => t.mint(),
            _ => 0,
        }
    }

    /// Record a completed traced attempt begun at `start`.
    fn record(&self, op: Op, span: u64, start: Option<u64>) {
        if let (Some(tracer), Some(t0)) = (self.tracer.as_ref().filter(|_| span != 0), start) {
            tracer.record(op, span, tracer.now_ns().saturating_sub(t0));
        }
    }

    /// The live connection, dialing one (a single attempt) if there is
    /// none. Backoff between failed dials belongs to `retrying`.
    fn ensure_client(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with(&*self.addr, self.config.clone())?);
            if self.ever_connected {
                self.counts.reconnects += 1;
            }
            self.ever_connected = true;
        }
        Ok(self.client.as_mut().expect("just ensured"))
    }

    fn sever(&mut self) {
        self.client = None;
        self.counts.drops += 1;
    }

    fn classify(&mut self, err: &ClientError) {
        if let ClientError::Io(e) = err {
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) {
                self.counts.timeouts += 1;
            }
        }
    }

    /// One chaotic `TAS` on `key`: apply this operation's faults,
    /// retrying through transport failures until the server hands
    /// down a verdict. Infallible short of retry exhaustion.
    fn acquire(&mut self, key: &[u8]) -> Result<Acquired, ClientError> {
        let faults = self.plan.next_op();
        if !faults.delay.is_zero() {
            self.counts.delays += 1;
            std::thread::sleep(faults.delay);
        }
        if faults.truncate {
            // Send a torn frame — a length header promising more bytes
            // than follow — then sever. The server times the stall out
            // (read deadline) or sees the close; either way this op
            // never happened and the retry below re-runs it cleanly.
            self.counts.truncations += 1;
            // The torn attempt is a wire attempt too: it gets its own
            // span (never a response, so no client span is recorded
            // and nothing can mispair with the retry's fresh span).
            let span = self.mint_span();
            let mut frame = Vec::new();
            frame_request_span(Op::Tas, span, key, &mut frame);
            let torn = &frame[..frame.len() - 1];
            match self.ensure_client() {
                Ok(client) => {
                    let _ = client.inject_raw(torn);
                }
                Err(e) => self.classify(&e.into()),
            }
            self.sever();
            // The loop below re-sends this op on a fresh connection:
            // that IS a retry after a transport fault, count it as one.
            self.counts.retries += 1;
        }
        let verdict = self.retrying(|c| c.tas_once(key, &faults))?;
        if faults.drop_after {
            self.sever();
        }
        Ok(verdict)
    }

    fn tas_once(&mut self, key: &[u8], faults: &OpFaults) -> Result<Acquired, ClientError> {
        let span = self.mint_span();
        let start = self.tracer.as_ref().map(ClientTracer::now_ns);
        let client = self.ensure_client()?;
        let acquired = if faults.reorder {
            // Reorder within the pipeline: the same request twice in
            // one batch, back frame first in construction order, both
            // frames shipped in one coalesced write. The server answers
            // in arrival order; both verdicts belong to this op's key,
            // and at most one can win. Take the win if either got it.
            // Only the first frame carries the span: one traced frame
            // per attempt keeps ≤1 server span per client span.
            client.send_batch_span(&[(Op::Tas, span, key), (Op::Tas, 0, key)])?;
            let first = client.recv_acquired()?;
            let second = client.recv_acquired()?;
            if first.won {
                first
            } else {
                second
            }
        } else {
            client.send_span(Op::Tas, span, key)?;
            client.recv_acquired()?
        };
        self.record(Op::Tas, span, start);
        if faults.reorder {
            self.counts.reorders += 1;
        }
        if acquired.won {
            if let Some(stall) = faults.stall {
                self.counts.stalls += 1;
                std::thread::sleep(stall);
            }
        }
        Ok(acquired)
    }

    /// Ack an epoch resolution on `key`, subject to `faults`. A skipped
    /// ack sends nothing; a duplicated ack relies on the server's
    /// zero-admission guard, which makes the replay a no-op.
    fn ack_reset(&mut self, key: &[u8], faults: ResetFaults) -> Result<(), ClientError> {
        if faults.skip {
            self.counts.skipped_resets += 1;
            return Ok(());
        }
        let sends = if faults.duplicate { 2 } else { 1 };
        self.retrying(|c| c.reset_once(key, sends))?;
        if faults.duplicate {
            self.counts.dup_resets += 1;
        }
        Ok(())
    }

    fn reset_once(&mut self, key: &[u8], sends: usize) -> Result<(), ClientError> {
        let span = self.mint_span();
        let start = self.tracer.as_ref().map(ClientTracer::now_ns);
        let client = self.ensure_client()?;
        // A duplicated ack goes out as one pipelined batch — a single
        // coalesced write carrying both RESET frames. Only the first
        // frame is traced (see the type docs).
        let batch = [(Op::Reset, span, key), (Op::Reset, 0, key)];
        client.send_batch_span(&batch[..sends])?;
        for _ in 0..sends {
            client.recv_reset()?;
        }
        self.record(Op::Reset, span, start);
        Ok(())
    }

    /// Run `once` until it succeeds — the one retry loop, dials
    /// included. Transport death or a desynchronized stream makes the
    /// connection untrustworthy: drop it, back off on the jitter
    /// stream, and retry on a fresh dial — idempotent at epoch
    /// granularity (a replayed op rejoins the key's open epoch, a
    /// duplicated loss is just another loss, a replayed ack is defused
    /// by the zero-admission guard). Any other error, or the error of
    /// the last of [`RETRY_ATTEMPTS`] tries, is returned.
    fn retrying<T>(
        &mut self,
        mut once: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0;
        loop {
            match once(self) {
                Ok(value) => return Ok(value),
                Err(err @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                    self.classify(&err);
                    self.client = None;
                    attempt += 1;
                    if attempt >= RETRY_ATTEMPTS {
                        return Err(err);
                    }
                    self.counts.retries += 1;
                    std::thread::sleep(backoff(attempt - 1, &mut self.jitter));
                }
                Err(other) => return Err(other),
            }
        }
    }
}

impl LoadTarget for ChaosTarget {
    type Ctx = ChaosCtx;

    fn context(&self) -> ChaosCtx {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let tracer = self
            .recorder
            .as_ref()
            .map(|r| ClientTracer::new(Arc::clone(r), conn as usize));
        ChaosCtx::new(
            &self.addr,
            &self.plan,
            conn,
            self.config.clone(),
            tracer,
            Arc::clone(&self.counts),
        )
    }

    fn acquire(&self, ctx: &mut ChaosCtx, shard: usize) -> bool {
        let verdict = ctx
            .acquire(&self.keys[shard])
            .unwrap_or_else(|e| panic!("chaotic TAS on {} failed: {e}", self.addr));
        if verdict.won {
            // THE safety bar: at most one winner per key-epoch, on the
            // server's own epoch numbering, under every fault mix.
            let mut wins = self.ledgers[shard].wins.lock().unwrap();
            let seen = wins.entry(verdict.epoch).or_insert(0);
            *seen += 1;
            assert!(
                *seen == 1,
                "second winner observed for shard {shard} server epoch {} — \
                 arbitration safety violated under chaos",
                verdict.epoch
            );
        }
        verdict.won
    }

    fn recycle(&self, ctx: &mut ChaosCtx, shard: usize, epoch: u64) {
        // The ack is subject to the plan's byzantine reset faults,
        // drawn from the (shard, LOCAL epoch) coordinates so the draw
        // is identical whichever worker finishes last. A skipped ack
        // strands the server epoch for the lease to reclaim; a
        // duplicated ack is defused by the server's zero-admission
        // guard.
        let faults = self.plan.reset_faults(shard as u64, epoch);
        ctx.ack_reset(&self.keys[shard], faults)
            .unwrap_or_else(|e| panic!("chaotic RESET on {} failed: {e}", self.addr));
    }

    fn registers(&self) -> u64 {
        self.registers
    }
}

/// A chaos run's outcome: the ordinary load outcome (its recorder's
/// [`ErrorClasses`] filled in) plus the fault tally and the observed
/// winner sets.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The measured run, reporting as `svc_chaos`.
    pub outcome: LoadOutcome,
    /// Client-side fault/recovery counters, all workers merged.
    pub counts: ChaosCounts,
    /// Winning server epochs observed, per shard, sorted.
    pub winners: Vec<Vec<u64>>,
    /// Server-side epochs reclaimed by the lease *during this run*
    /// (the `STATS` delta).
    pub reclaimed: u64,
}

/// Run the specified workload against the server at `addr` with
/// `plan`'s faults injected. The one-winner-per-key-epoch bar is
/// enforced fail-fast on every acquire; the outcome's
/// recorder carries the error-class counts (timeouts, retries,
/// reconnects, server reclaims).
///
/// # Errors
///
/// Fails if the server is unreachable or refuses the clean probe.
/// Transport failures mid-run are absorbed by the chaos client's
/// retry/backoff; a worker that exhausts its retries panics loudly.
///
/// # Panics
///
/// Panics on an inconsistent spec, or on a safety violation (a second
/// winner for one server epoch).
pub fn run_load_chaos(
    addr: &str,
    spec: LoadSpec,
    plan: FaultPlan,
) -> Result<ChaosOutcome, ClientError> {
    run_load_chaos_traced(addr, spec, plan, None)
}

/// [`run_load_chaos`] with an optional client-side flight recorder
/// (see [`ChaosTarget::with_recorder`]): the caller keeps the `Arc`
/// and dumps the rings after the run. Passing `None` is exactly
/// `run_load_chaos` — and because span minting never touches the
/// seeded fault streams, both variants replay the identical fault
/// schedule from one `(seed, spec, workload)` triple.
///
/// # Errors
///
/// As [`run_load_chaos`], plus a failed trace-negotiation probe.
pub fn run_load_chaos_traced(
    addr: &str,
    spec: LoadSpec,
    plan: FaultPlan,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<ChaosOutcome, ClientError> {
    spec.validate();
    assert!(
        spec.pipeline == 1,
        "chaos runs require pipeline depth 1: the fault plan's draw order is \
         defined over lockstep round trips, and retry/reconnect recovery \
         cannot replay a window of blind in-flight epochs"
    );
    let config = ClientConfig::default();
    let mut target = ChaosTarget::new(addr, spec.shards, plan, config.clone())?;
    if let Some(recorder) = recorder {
        target = target.with_recorder(recorder)?;
    }
    let before = Client::connect_with(addr, config.clone())?.stats()?;
    let mut outcome = run_on_target(&target, spec, TargetKind::Chaos);
    let after = Client::connect_with(addr, config)?.stats()?;
    let reclaimed = after.reclaimed.saturating_sub(before.reclaimed);
    let counts = target.counts();
    outcome.recorder.add_errors(&ErrorClasses {
        timeouts: counts.timeouts,
        retries: counts.retries,
        reconnects: counts.reconnects,
        reclaimed,
    });
    Ok(ChaosOutcome {
        outcome,
        counts,
        winners: target.winner_epochs(),
        reclaimed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn presets_parse_and_round_trip_through_the_grammar() {
        for name in ["clean", "delay-only", "drop-heavy", "byzantine-reset"] {
            let preset = ChaosSpec::preset(name).unwrap();
            assert_eq!(ChaosSpec::parse(name).unwrap(), preset);
            // Display emits the explicit k=v form, which parses back.
            assert_eq!(ChaosSpec::parse(&preset.to_string()).unwrap(), preset);
        }
        assert!(ChaosSpec::preset("nope").is_none());
    }

    #[test]
    fn key_value_grammar_overrides_presets() {
        let spec = ChaosSpec::parse("drop-heavy,drop=0.5,stall-ms=9").unwrap();
        assert_eq!(spec.drop_p, 0.5);
        assert_eq!(spec.stall, Duration::from_millis(9));
        // Untouched keys keep the preset's values.
        assert_eq!(
            spec.truncate_p,
            ChaosSpec::preset("drop-heavy").unwrap().truncate_p
        );
    }

    #[test]
    fn bad_specs_are_refused_with_a_reason() {
        for (input, needle) in [
            ("drop=1.5", "outside"),
            ("drop=x", "not a probability"),
            ("unknown=1", "unknown chaos key"),
            ("gibberish", "expected preset or k=v"),
            ("drop=0.1,clean", "must come first"),
            ("stall-ms=abc", "not an integer"),
        ] {
            let err = ChaosSpec::parse(input).unwrap_err();
            assert!(err.contains(needle), "{input}: {err}");
        }
    }

    #[test]
    fn connection_plans_replay_bit_identically_from_one_seed() {
        let spec = ChaosSpec::parse("drop-heavy,stall=0.3,skip-reset=0.2").unwrap();
        let a = FaultPlan::new(spec.clone(), 42);
        let b = FaultPlan::new(spec, 42);
        for conn in 0..8u64 {
            let (mut pa, mut pb) = (a.for_connection(conn), b.for_connection(conn));
            for _ in 0..1000 {
                assert_eq!(pa.next_op(), pb.next_op());
            }
        }
        for shard in 0..4 {
            for epoch in 0..256 {
                assert_eq!(a.reset_faults(shard, epoch), b.reset_faults(shard, epoch));
            }
        }
    }

    #[test]
    fn distinct_seeds_and_connections_draw_distinct_schedules() {
        let spec = ChaosSpec::parse("drop=0.5,delay=0.5,truncate=0.5").unwrap();
        let plan = FaultPlan::new(spec.clone(), 1);
        let other_seed = FaultPlan::new(spec, 2);
        let sample =
            |p: &mut ConnectionPlan| -> Vec<OpFaults> { (0..64).map(|_| p.next_op()).collect() };
        let c0 = sample(&mut plan.for_connection(0));
        let c1 = sample(&mut plan.for_connection(1));
        let s2 = sample(&mut other_seed.for_connection(0));
        assert_ne!(c0, c1, "per-connection streams are independent");
        assert_ne!(c0, s2, "different seeds, different schedules");
    }

    #[test]
    fn toggling_one_fault_class_never_shifts_anothers_schedule() {
        // The fixed-order draw contract: enable drops, and the delay
        // schedule must not move.
        let with_drops = FaultPlan::new(ChaosSpec::parse("delay=0.3,drop=0.9").unwrap(), 7);
        let without = FaultPlan::new(ChaosSpec::parse("delay=0.3").unwrap(), 7);
        let (mut pa, mut pb) = (with_drops.for_connection(3), without.for_connection(3));
        for _ in 0..500 {
            let (fa, fb) = (pa.next_op(), pb.next_op());
            assert_eq!(fa.delay, fb.delay, "delay schedule is drop-independent");
        }
    }

    #[test]
    fn reset_faults_are_pure_in_the_epoch_coordinates() {
        let spec = ChaosSpec::preset("byzantine-reset").unwrap();
        let plan = FaultPlan::new(spec, 99);
        // Calling in any order, any number of times, gives the same
        // answer: the draw is stateless.
        let expected = plan.reset_faults(1, 10);
        for _ in 0..3 {
            assert_eq!(plan.reset_faults(1, 10), expected);
        }
        // Skip and duplicate are mutually exclusive by construction.
        for shard in 0..8 {
            for epoch in 0..512 {
                let f = plan.reset_faults(shard, epoch);
                assert!(!(f.skip && f.duplicate));
            }
        }
        // With byzantine probabilities on, both classes actually fire
        // somewhere in the grid.
        let grid: Vec<ResetFaults> = (0..8)
            .flat_map(|s| (0..512).map(move |e| (s, e)))
            .map(|(s, e)| plan.reset_faults(s, e))
            .collect();
        assert!(grid.iter().any(|f| f.skip), "skip fires");
        assert!(grid.iter().any(|f| f.duplicate), "duplicate fires");
    }

    /// A context of `plan`'s connection 0 aimed at `addr`, counting into
    /// a private sink.
    fn ctx(addr: &str, plan: &FaultPlan, tracer: Option<ClientTracer>) -> ChaosCtx {
        let sink = Arc::new(Mutex::new(ChaosCounts::default()));
        ChaosCtx::new(addr, plan, 0, ClientConfig::default(), tracer, sink)
    }

    #[test]
    fn attaching_a_tracer_never_touches_the_fault_or_jitter_streams() {
        use rtas_svc::obs::TraceMode;
        // Minting spans is pure arithmetic on the tracer's counter, so
        // a traced client's fault plan must replay bit-identically to
        // an untraced one from the same seed — even after many mints.
        let spec = ChaosSpec::parse("drop-heavy").unwrap();
        let plan = FaultPlan::new(spec, 42);
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 1));
        let mut traced = ctx("127.0.0.1:1", &plan, Some(ClientTracer::new(recorder, 0)));
        let mut plain = ctx("127.0.0.1:1", &plan, None);
        for _ in 0..64 {
            let span = traced.mint_span();
            assert_ne!(span, 0, "a live tracer mints nonzero spans");
            assert_eq!(plain.mint_span(), 0, "no tracer means span 0");
            assert_eq!(traced.plan.next_op(), plain.plan.next_op());
        }
        // An attached-but-off tracer also stamps nothing on the wire.
        let off = Arc::new(FlightRecorder::new(TraceMode::Off, 1));
        let mut idle = ctx("127.0.0.1:1", &plan, Some(ClientTracer::new(off, 0)));
        assert_eq!(idle.mint_span(), 0);
    }

    #[test]
    fn a_dead_server_costs_one_dial_per_attempt_and_one_backoff_loop() {
        // An address whose listener was just dropped refuses every
        // dial at once, so the time spent is the backoff alone. One
        // loop of 8 tries sleeps at most 127 ms in total;
        // a dial loop nested inside each retry would sleep at least
        // 0.57 s.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let plan = FaultPlan::new(ChaosSpec::default(), 7);
        let mut ctx = ctx(&addr, &plan, None);
        let started = Instant::now();
        let err = ctx.acquire(b"load/0").expect_err("nothing is listening");
        let took = started.elapsed();
        assert!(matches!(err, ClientError::Io(_)), "{err}");
        assert_eq!(ctx.counts.retries, u64::from(RETRY_ATTEMPTS - 1));
        assert_eq!(ctx.counts.reconnects, 0);
        assert!(
            took < Duration::from_millis(400),
            "gave up after {took:?}: the retry loop is nested"
        );
    }

    #[test]
    fn chaos_counts_merge_and_total() {
        let mut a = ChaosCounts {
            delays: 1,
            drops: 2,
            truncations: 3,
            retries: 10,
            ..ChaosCounts::default()
        };
        let b = ChaosCounts {
            delays: 4,
            stalls: 5,
            skipped_resets: 6,
            dup_resets: 7,
            timeouts: 8,
            reconnects: 9,
            ..ChaosCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.delays, 5);
        assert_eq!(a.injected(), 5 + 2 + 3 + 5 + 6 + 7);
        assert_eq!(a.retries, 10);
        assert_eq!(a.timeouts, 8);
    }
}
