//! Deterministic hostile-network fault injection.
//!
//! The paper's guarantees are *adversarial*: safety and expected step
//! complexity hold against a strong adaptive scheduler. This module
//! gives the network service the same adversary — an in-process chaos
//! layer that perturbs a client's traffic with delays, connection
//! drops, frame truncation, pipeline reordering, stalled epoch
//! holders, and byzantine `RESET` acks (skipped or duplicated) — while
//! keeping the whole schedule **deterministic**: every fault is drawn
//! from [`rtas::sim::rng::SplitMix64`] streams split from one seed, so
//! the same `(seed, spec)` pair replays a bit-identical fault
//! schedule, exactly like the load driver's `ArrivalSchedule`.
//!
//! Three layers:
//!
//! * [`ChaosSpec`] — the fault mix, parsed from the CLI grammar
//!   `k=v,k=v,...` or one of the named presets (`clean`, `delay-only`,
//!   `drop-heavy`, `byzantine-reset`);
//! * [`FaultPlan`] — the deterministic schedule: a per-connection
//!   SplitMix64 stream ([`FaultPlan::for_connection`]) drawing one
//!   [`OpFaults`] per operation in a fixed order, plus
//!   [`FaultPlan::reset_faults`], a *pure function* of
//!   `(seed, shard, epoch)` so the reset-ack faults do not depend on
//!   which racing worker happens to resolve the epoch;
//! * [`ChaosClient`] — a [`crate::Client`] wrapper that
//!   applies a plan's faults to real wire traffic and classifies the
//!   fallout into [`ChaosCounts`]. It can optionally carry a
//!   [`ClientTracer`]: every wire attempt is stamped with a fresh
//!   trace span (see `docs/WIRE.md`) without consuming a single draw
//!   from the fault or jitter streams, so traced chaos runs replay
//!   the same fault schedule as untraced ones.
//!
//! The safety bar is unchanged under every fault mix: at most one
//! winner per key-epoch, server-side. The chaos layer may *lose*
//! acks (the lease reclaims those epochs), may retry (idempotent at
//! epoch granularity), and may lie — none of it can mint a second
//! winner, and `tests/svc_chaos.rs` asserts exactly that.

use std::fmt;
use std::io;
use std::time::Duration;

use rtas::sim::rng::SplitMix64;

use crate::client::{Client, ClientConfig, ClientTracer, RetryPolicy};
use crate::protocol::{frame_request_span, Op, Response};
use crate::ClientError;

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

    /// True when every fault class is disabled.
    pub fn is_clean(&self) -> bool {
        self.delay_p == 0.0
            && self.drop_p == 0.0
            && self.truncate_p == 0.0
            && self.reorder_p == 0.0
            && self.stall_p == 0.0
            && self.skip_reset_p == 0.0
            && self.dup_reset_p == 0.0
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

    /// The fault mix this plan replays.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
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

/// The verdict of one chaotic acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosVerdict {
    /// Did this operation win its server epoch?
    pub won: bool,
    /// The server epoch the verdict belongs to.
    pub epoch: u64,
}

/// A fault-injecting wrapper around one [`Client`] connection.
///
/// Applies a [`ConnectionPlan`]'s faults to real traffic and absorbs
/// the fallout: severed or truncated connections redial under the
/// [`RetryPolicy`] with a backoff jitter stream that is **separate**
/// from the fault stream (retries are timing-dependent and must not
/// shift the deterministic fault schedule).
///
/// With a [`ClientTracer`] attached ([`ChaosClient::with_tracer`])
/// every wire attempt carries a **fresh** trace span — a retry is a
/// new attempt and mints a new span, so a client span can never pair
/// with more than one server span. Span minting is pure arithmetic on
/// the tracer's own counter: it never draws from the fault or jitter
/// streams, so traced and untraced runs replay the **bit-identical**
/// fault schedule from the same seed. On reordered (and duplicated
/// ack) batches only the *first* frame carries the span; the second
/// is deliberately untraced for the same ≤1-server-span reason.
#[derive(Debug)]
pub struct ChaosClient {
    addr: String,
    config: ClientConfig,
    retry: RetryPolicy,
    client: Option<Client>,
    /// Whether a connection has ever been established: any later
    /// successful dial is a *re*connect in the counters.
    ever_connected: bool,
    plan: ConnectionPlan,
    jitter: SplitMix64,
    counts: ChaosCounts,
    tracer: Option<ClientTracer>,
}

impl ChaosClient {
    /// Wrap connection `conn` of `plan`, dialing `addr` lazily.
    pub fn new(addr: &str, plan: &FaultPlan, conn: u64, config: ClientConfig) -> Self {
        ChaosClient {
            addr: addr.to_string(),
            config,
            retry: RetryPolicy::default(),
            client: None,
            ever_connected: false,
            // Jitter stream: same root, disjoint tagged index space.
            jitter: SplitMix64::split(plan.seed() ^ 0x4A49_5454_4552_5F43, conn),
            plan: plan.for_connection(conn),
            counts: ChaosCounts::default(),
            tracer: None,
        }
    }

    /// Attach a tracer: stamp every wire attempt with a fresh span and
    /// record a [`rtas_obs::EventKind::ClientSpan`] per completed
    /// attempt. The schedule-neutrality contract is documented on the
    /// type.
    pub fn with_tracer(mut self, tracer: ClientTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The fault/recovery counters so far.
    pub fn counts(&self) -> &ChaosCounts {
        &self.counts
    }

    /// A fresh span for the next wire attempt, or 0 (untraced) when no
    /// live tracer is attached. Pure arithmetic — no RNG.
    fn mint_span(&mut self) -> u64 {
        match self.tracer.as_mut() {
            Some(t) if t.enabled() => t.mint(),
            _ => 0,
        }
    }

    fn ensure_client(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let mut attempt = 0;
            loop {
                match Client::connect_with(&*self.addr, self.config.clone()) {
                    Ok(c) => {
                        if self.ever_connected {
                            self.counts.reconnects += 1;
                        }
                        self.ever_connected = true;
                        self.client = Some(c);
                        break;
                    }
                    Err(e) => {
                        if e.kind() == io::ErrorKind::TimedOut {
                            self.counts.timeouts += 1;
                        }
                        attempt += 1;
                        if attempt >= self.retry.attempts {
                            return Err(e);
                        }
                        std::thread::sleep(self.retry.backoff(attempt - 1, &mut self.jitter));
                    }
                }
            }
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

    /// One chaotic arbitration op on `key`: apply this operation's
    /// faults, retrying through transport failures until the server
    /// hands down a verdict. Infallible short of retry exhaustion.
    pub fn acquire(&mut self, op: Op, key: &[u8]) -> Result<ChaosVerdict, ClientError> {
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
            frame_request_span(op, span, key, &mut frame);
            let torn = &frame[..frame.len() - 1];
            if let Ok(client) = self.ensure_client() {
                let _ = client.inject_raw(torn);
            }
            self.sever();
            // The loop below re-sends this op on a fresh connection:
            // that IS a retry after a transport fault, count it as one.
            self.counts.retries += 1;
        }
        let verdict = self.retrying(|c| c.try_once(op, key, &faults))?;
        if faults.drop_after {
            self.sever();
        }
        Ok(verdict)
    }

    fn try_once(
        &mut self,
        op: Op,
        key: &[u8],
        faults: &OpFaults,
    ) -> Result<ChaosVerdict, ClientError> {
        let reorder = faults.reorder;
        let span = self.mint_span();
        let start = self.tracer.as_ref().map(ClientTracer::now_ns);
        let client = self.ensure_client().map_err(ClientError::Io)?;
        let acquired = if reorder {
            // Reorder within the pipeline: the same request twice in
            // one batch, back frame first in construction order, both
            // frames shipped in one coalesced write. The server answers
            // in arrival order; both verdicts belong to this op's key,
            // and at most one can win. Take the win if either got it.
            // Only the first frame carries the span: one traced frame
            // per attempt keeps ≤1 server span per client span.
            client.send_batch_span(&[(op, span, key), (op, 0, key)])?;
            let first = expect_acquired(client.recv()?)?;
            let second = expect_acquired(client.recv()?)?;
            if first.won {
                first
            } else {
                second
            }
        } else {
            client.send_span(op, span, key)?;
            expect_acquired(client.recv()?)?
        };
        if span != 0 {
            if let (Some(tracer), Some(t0)) = (self.tracer.as_ref(), start) {
                tracer.record(op, span, tracer.now_ns().saturating_sub(t0));
            }
        }
        if reorder {
            self.counts.reorders += 1;
        }
        if acquired.won {
            if let Some(stall) = faults.stall {
                self.counts.stalls += 1;
                std::thread::sleep(stall);
            }
        }
        Ok(ChaosVerdict {
            won: acquired.won,
            epoch: acquired.epoch,
        })
    }

    /// Ack an epoch resolution on `key`, subject to `faults`. Returns
    /// the epoch the server reports open after the ack (`None` when
    /// the ack was byzantinely skipped). A duplicated ack relies on
    /// the server's zero-admission guard: the replay is a no-op.
    pub fn ack_reset(
        &mut self,
        key: &[u8],
        faults: ResetFaults,
    ) -> Result<Option<u64>, ClientError> {
        if faults.skip {
            self.counts.skipped_resets += 1;
            return Ok(None);
        }
        let sends = if faults.duplicate { 2 } else { 1 };
        let epoch = self.retrying(|c| c.reset_once(key, sends))?;
        if faults.duplicate {
            self.counts.dup_resets += 1;
        }
        Ok(Some(epoch))
    }

    /// Run `once` until it succeeds. Transport death or a
    /// desynchronized stream makes the connection untrustworthy: drop
    /// it, back off on the jitter stream, and retry on a fresh dial —
    /// idempotent at epoch granularity (a replayed op rejoins the key's
    /// open epoch, a duplicated loss is just another loss, a replayed
    /// ack is defused by the zero-admission guard). Any other error, or
    /// retry exhaustion, is returned.
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
                    if attempt >= self.retry.attempts {
                        return Err(err);
                    }
                    self.counts.retries += 1;
                    std::thread::sleep(self.retry.backoff(attempt - 1, &mut self.jitter));
                }
                Err(other) => return Err(other),
            }
        }
    }

    fn reset_once(&mut self, key: &[u8], sends: u32) -> Result<u64, ClientError> {
        let span = self.mint_span();
        let start = self.tracer.as_ref().map(ClientTracer::now_ns);
        let client = self.ensure_client().map_err(ClientError::Io)?;
        // A duplicated ack goes out as one pipelined batch — a single
        // coalesced write carrying both RESET frames. Only the first
        // frame is traced (see the type docs).
        let batch: Vec<(Op, u64, &[u8])> = (0..sends)
            .map(|i| (Op::Reset, if i == 0 { span } else { 0 }, key))
            .collect();
        client.send_batch_span(&batch)?;
        let mut last = 0;
        for _ in 0..sends {
            match client.recv()? {
                Response::Reset { epoch } => last = epoch,
                Response::Err(msg) => return Err(ClientError::Remote(msg)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected a reset ack, got {other:?}"
                    )))
                }
            }
        }
        if span != 0 {
            if let (Some(tracer), Some(t0)) = (self.tracer.as_ref(), start) {
                tracer.record(Op::Reset, span, tracer.now_ns().saturating_sub(t0));
            }
        }
        Ok(last)
    }

    /// Drain anything still buffered and drop the connection (end of a
    /// worker's run).
    pub fn finish(mut self) -> ChaosCounts {
        if let Some(client) = self.client.take() {
            drop(client);
        }
        self.counts
    }
}

fn expect_acquired(response: Response) -> Result<crate::Acquired, ClientError> {
    match response {
        Response::Acquired(a) => Ok(a),
        Response::Err(msg) => Err(ClientError::Remote(msg)),
        other => Err(ClientError::Protocol(format!(
            "expected an arbitration verdict, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_round_trip_through_the_grammar() {
        for name in ["clean", "delay-only", "drop-heavy", "byzantine-reset"] {
            let preset = ChaosSpec::preset(name).unwrap();
            assert_eq!(ChaosSpec::parse(name).unwrap(), preset);
            // Display emits the explicit k=v form, which parses back.
            assert_eq!(ChaosSpec::parse(&preset.to_string()).unwrap(), preset);
        }
        assert!(ChaosSpec::preset("nope").is_none());
        assert!(ChaosSpec::parse("clean").unwrap().is_clean());
        assert!(!ChaosSpec::parse("drop-heavy").unwrap().is_clean());
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

    #[test]
    fn attaching_a_tracer_never_touches_the_fault_or_jitter_streams() {
        use rtas_obs::{FlightRecorder, TraceMode};
        use std::sync::Arc;
        // Minting spans is pure arithmetic on the tracer's counter, so
        // a traced client's fault plan must replay bit-identically to
        // an untraced one from the same seed — even after many mints.
        let spec = ChaosSpec::parse("drop-heavy").unwrap();
        let plan = FaultPlan::new(spec, 42);
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 1));
        let mut traced = ChaosClient::new("127.0.0.1:1", &plan, 0, ClientConfig::default())
            .with_tracer(ClientTracer::new(recorder, 0));
        let mut plain = ChaosClient::new("127.0.0.1:1", &plan, 0, ClientConfig::default());
        for _ in 0..64 {
            let span = traced.mint_span();
            assert_ne!(span, 0, "a live tracer mints nonzero spans");
            assert_eq!(plain.mint_span(), 0, "no tracer means span 0");
            assert_eq!(traced.plan.next_op(), plain.plan.next_op());
        }
        // An attached-but-off tracer also stamps nothing on the wire.
        let off = Arc::new(FlightRecorder::new(TraceMode::Off, 1));
        let mut idle = ChaosClient::new("127.0.0.1:1", &plan, 0, ClientConfig::default())
            .with_tracer(ClientTracer::new(off, 0));
        assert_eq!(idle.mint_span(), 0);
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
