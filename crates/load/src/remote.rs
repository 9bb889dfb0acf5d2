//! The remote backend: fire the same deterministic workloads at an
//! `rtas-svc` arbitration server over TCP.
//!
//! [`RemoteTarget`] maps the driver's shards onto the service's keyed
//! namespaces: shard `s` is the key `load/s`. The target is transport
//! only: [`LoadTarget::acquire`] is one `TAS` over the worker's own
//! connection, and [`LoadTarget::recycle`] — run by the driver's epoch
//! turn on the epoch's **last finisher** — is the `RESET` ack. The
//! server independently enforces the same invariant (its own epoch
//! gate admits and recycles), so exactly one winner per key-epoch holds
//! end to end, asserted by the driver's win accounting.
//!
//! ## Pipelining
//!
//! At [`LoadSpec::pipeline`] depth `d > 1` a worker keeps up to `d`
//! epochs in flight on its connection: each acquire ships the epoch's
//! `TAS` **and** its `RESET` ack as one two-frame batch (a single
//! `write` syscall — the server answers frames in order, so the ack is
//! sound the moment the verdict is), returns at once — `recycle` is
//! then a no-op, the ack already went out — and only blocks to drain
//! the *oldest* in-flight epoch's two responses once the window is
//! full. Depth `d > 1` requires
//! `threads == shards` (each worker the sole participant of its shard
//! key — enforced by [`LoadSpec::validate`]): a sole participant's
//! verdict is always a win and never depends on a peer's reply, so
//! blind batching cannot deadlock. The drain still checks every
//! deferred verdict — a lost epoch or failed ack panics the worker, so
//! the one-winner accounting stays airtight. Depth 1 is the classic
//! lockstep round trip, unchanged.
//!
//! Because the open-loop [`ArrivalSchedule`] is a pure function of the
//! seed, the *offered* load is bit-identical run to run here too — the
//! service sees the same request instants whatever the network does —
//! and end-to-end latency is still measured from the scheduled instant
//! (queueing included, no coordinated omission). Reports are emitted as
//! `BENCH_svc_load.json` (rows labeled `backend=remote`, `gate=wall`,
//! `pipeline=<depth>`).
//!
//! ## Connection fan-out (C10K)
//!
//! [`LoadSpec::conns`] holds a fixed fleet of `conns / threads`
//! connections open **per worker** for the whole run; each resolution
//! round-robins onto the next connection, so thousands of live
//! connections are exercised by a handful of threads. Reports from a
//! fan-out run are emitted as `BENCH_svc_c10k.json` with a `conns`
//! label on every row.
//!
//! ## End-to-end tracing
//!
//! With a recorder attached ([`RemoteTarget::with_recorder`], the
//! `rtas-load --trace` flag) every lockstep resolution carries a wire
//! trace span (`docs/WIRE.md`) and records a `ClientSpan` event; the
//! server records the matching `ServerSpan`, and `rtas-trace merge`
//! joins the two dumps into per-request network/server/queue latency
//! breakdowns. The pipelined path stays untraced by design — blind
//! batches defer their responses, so there is no per-frame completion
//! point to time. Support is negotiated with a traced `STATS` probe;
//! old servers get plain untraced traffic.
//!
//! [`ArrivalSchedule`]: crate::schedule::ArrivalSchedule
//! [`LoadSpec::pipeline`]: crate::driver::LoadSpec::pipeline
//! [`LoadSpec::conns`]: crate::driver::LoadSpec::conns
//! [`LoadSpec::validate`]: crate::driver::LoadSpec

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rtas_svc::obs::{EventKind, FlightRecorder, Lane};
use rtas_svc::{Client, ClientConfig, ClientError, Op, Response};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};

/// Bind `shards` keys named `load/0..load/shards-1` on the server at
/// `addr` and read its register count — the probe the remote and chaos
/// targets share (see [`RemoteTarget::new`]).
pub(crate) fn bind_keys(
    addr: &str,
    config: ClientConfig,
    shards: usize,
) -> Result<(Vec<Vec<u8>>, u64), ClientError> {
    let mut probe = Client::connect_with(addr, config)?;
    let keys: Vec<Vec<u8>> = (0..shards)
        .map(|s| format!("load/{s}").into_bytes())
        .collect();
    for key in &keys {
        probe.tas(key)?;
        probe.reset(key)?;
    }
    let registers = probe.stats()?.registers;
    Ok((keys, registers))
}

/// Negotiate wire tracing with the server at `addr` before a target
/// attaches `recorder` — the negotiation the remote and chaos targets
/// share. One traced `STATS` probe (`Client::probe_trace`) tells a new
/// server from an old one over a healthy connection; an old server
/// keeps the recorder detached (`None`) with a warning on stderr rather
/// than an error: tracing is additive observability, never a reason to
/// refuse load.
///
/// Fails only if the probe cannot reach the server.
pub(crate) fn negotiate_trace(
    addr: &str,
    config: ClientConfig,
    recorder: Arc<FlightRecorder>,
) -> Result<Option<Arc<FlightRecorder>>, ClientError> {
    if Client::connect_with(addr, config)?.probe_trace()? {
        return Ok(Some(recorder));
    }
    eprintln!(
        "rtas-load: warning: {addr} does not speak the wire trace \
         extension (old server?); tracing disabled"
    );
    Ok(None)
}

/// Client-side span bookkeeping for one load-generator worker context:
/// mints wire span ids and records the matching
/// [`ClientSpan`](EventKind::ClientSpan) events into the client tier's
/// own [`FlightRecorder`].
///
/// Span ids must be unique across the whole client process for the
/// merge join to be unambiguous, and minting must never draw from any
/// seeded fault/jitter stream (tracing cannot perturb a deterministic
/// chaos schedule). Both fall out of plain arithmetic: context `ctx`
/// owns the id range `(ctx + 1) << 40 | seq` — 2^24 contexts, 2^40
/// requests each, and never span 0 because `ctx + 1 > 0`.
///
/// Retried sends must mint a **fresh** span per wire attempt — a span
/// id names one frame, not one logical operation — which is what keeps
/// "at most one server span per client span" true under chaos retries.
#[derive(Debug)]
pub(crate) struct ClientTracer {
    recorder: Arc<FlightRecorder>,
    lane: Lane,
    base: u64,
    seq: u64,
}

impl ClientTracer {
    /// A tracer for worker context `ctx`, recording onto the client
    /// recorder's `Worker(ctx)` lane.
    pub fn new(recorder: Arc<FlightRecorder>, ctx: usize) -> ClientTracer {
        ClientTracer {
            recorder,
            lane: Lane::Worker(ctx),
            base: ((ctx as u64) + 1) << 40,
            seq: 0,
        }
    }

    /// Whether recording is live (the recorder's mode is not `off`).
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Mint the next span id for this context (never 0).
    pub fn mint(&mut self) -> u64 {
        self.seq += 1;
        self.base | (self.seq & 0xff_ffff_ffff)
    }

    /// Nanoseconds on the client recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Record a completed round trip: one `ClientSpan` event carrying
    /// the opcode, the span id, and the send→decoded duration.
    pub fn record(&self, op: Op, span: u64, rtt_ns: u64) {
        self.recorder.record(
            self.lane,
            EventKind::ClientSpan,
            u32::from(op.code()),
            span,
            rtt_ns,
        );
    }
}

/// An `rtas-svc` server as a [`LoadTarget`]: `shards` keys named
/// `load/0..load/shards-1`, each recycled through the wire protocol's
/// `RESET` ack.
#[derive(Debug)]
pub struct RemoteTarget {
    addr: String,
    keys: Vec<Vec<u8>>,
    pipeline: usize,
    /// Connections each worker holds open and round-robins across
    /// (the C10K fan-out; 1 is the classic one-connection worker).
    conns_per_worker: usize,
    registers: u64,
    /// Client-side flight recorder ([`RemoteTarget::with_recorder`]):
    /// when set, lockstep resolutions carry wire trace spans and record
    /// `ClientSpan` events onto the context's worker lane.
    recorder: Option<Arc<FlightRecorder>>,
    /// Next worker-context index, handed out in `context()` call order
    /// (the driver creates the initial fleet's contexts sequentially on
    /// the main thread, so indices — and therefore span id spaces —
    /// are stable run to run).
    next_ctx: AtomicUsize,
}

/// Per-worker connections plus the pipeline window: shard indices of
/// epochs whose `(TAS, RESET)` response pairs are still in flight, in
/// send order (the server answers in order, so the front of the queue
/// is always the next pair on the wire).
///
/// Under a connection fan-out ([`LoadSpec::conns`]) a worker owns many
/// clients and round-robins resolutions across them so every
/// connection stays live; pipelining (which is per-connection
/// bookkeeping) is restricted to the single-client shape by
/// `LoadSpec::validate`.
#[derive(Debug)]
pub struct RemoteCtx {
    clients: Vec<Client>,
    /// The client the current resolution runs on: each acquire advances
    /// the round-robin, and the epoch's recycle reuses its connection.
    at: usize,
    inflight: VecDeque<usize>,
    /// Span minting + `ClientSpan` recording for this worker's traffic
    /// (lockstep path only; `None` when the target has no recorder).
    tracer: Option<ClientTracer>,
}

impl RemoteCtx {
    /// One lockstep round trip on the current client. With a live
    /// tracer the frame carries a fresh span and the send → decoded
    /// time is recorded as a `ClientSpan`; otherwise the span is 0,
    /// which frames exactly like an untraced request.
    fn round_trip(&mut self, op: Op, key: &[u8]) -> Result<Response, ClientError> {
        let (span, t0) = match self.tracer.as_mut().filter(|t| t.enabled()) {
            Some(tracer) => (tracer.mint(), tracer.now_ns()),
            None => (0, 0),
        };
        let client = &mut self.clients[self.at];
        client.send_span(op, span, key)?;
        let response = client.recv()?;
        if let Some(tracer) = self.tracer.as_ref().filter(|_| span != 0) {
            tracer.record(op, span, tracer.now_ns().saturating_sub(t0));
        }
        Ok(response)
    }

    /// Block for the oldest in-flight epoch's two responses and check
    /// them: the deferred verdict must be a win (the worker is its
    /// shard's sole participant) and the ack must be a reset ack.
    fn drain_one(&mut self) {
        let shard = self
            .inflight
            .pop_front()
            .expect("drain_one called with an empty pipeline window");
        // Pipelining implies the single-client shape (validate()), so
        // the window always belongs to clients[0].
        let client = &mut self.clients[0];
        let peer = client.peer();
        match client.recv() {
            Ok(Response::Acquired(a)) => assert!(
                a.won,
                "pipelined TAS on shard {shard} via {peer} lost its epoch \
                 despite being the sole participant"
            ),
            Ok(other) => panic!(
                "pipelined TAS on shard {shard} via {peer}: expected a verdict, got {other:?}"
            ),
            Err(e) => panic!("pipelined TAS on shard {shard} via {peer} failed: {e}"),
        }
        match client.recv() {
            Ok(Response::Reset { .. }) => {}
            Ok(other) => panic!(
                "pipelined RESET on shard {shard} via {peer}: expected an ack, got {other:?}"
            ),
            Err(e) => panic!("pipelined RESET on shard {shard} via {peer} failed: {e}"),
        }
    }
}

impl Drop for RemoteCtx {
    fn drop(&mut self) {
        // A worker life ends with its window drained, so every epoch it
        // opened is verified and the server's gates are quiescent for
        // the next life. Never on the unwind path though: the stream
        // may be desynchronized, and a drain panic would abort.
        if std::thread::panicking() {
            return;
        }
        while !self.inflight.is_empty() {
            self.drain_one();
        }
    }
}

impl RemoteTarget {
    /// Bind `shards` keys on the server at `addr`, driven in lockstep
    /// (pipeline depth 1).
    ///
    /// Connects once to probe reachability and to put every key into a
    /// known-fresh epoch (`TAS` to materialize it, `RESET` to recycle —
    /// a crashed previous run cannot leave a half-resolved epoch
    /// behind), then reads the server's register count. The probe's
    /// win/loss is deliberately *not* part of the run's accounting.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(addr: &str, shards: usize) -> Result<RemoteTarget, ClientError> {
        Self::with_pipeline(addr, shards, 1)
    }

    /// [`RemoteTarget::new`] with an explicit pipeline depth (see the
    /// [module docs](self)). A depth above 1 is only sound when every
    /// worker is its shard's sole participant, which
    /// [`run_load_remote`] checks against the spec.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `pipeline == 0`.
    pub fn with_pipeline(
        addr: &str,
        shards: usize,
        pipeline: usize,
    ) -> Result<RemoteTarget, ClientError> {
        Self::with_shape(addr, shards, pipeline, 1)
    }

    /// [`RemoteTarget::new`] with an explicit per-worker connection
    /// fan-out: every worker context holds `conns_per_worker`
    /// connections open and round-robins its resolutions across them
    /// (the C10K posture — see [`LoadSpec::conns`]).
    ///
    /// # Panics
    ///
    /// Panics on the [`RemoteTarget::with_pipeline`] conditions, if
    /// `conns_per_worker == 0`, or if `conns_per_worker > 1 &&
    /// pipeline > 1` (the pipeline window is per-connection).
    pub fn with_shape(
        addr: &str,
        shards: usize,
        pipeline: usize,
        conns_per_worker: usize,
    ) -> Result<RemoteTarget, ClientError> {
        assert!(shards >= 1, "remote target needs at least one shard key");
        assert!(pipeline >= 1, "pipeline depth must be at least 1");
        assert!(
            conns_per_worker >= 1,
            "each worker needs at least one connection"
        );
        assert!(
            conns_per_worker == 1 || pipeline == 1,
            "a connection fan-out requires pipeline depth 1 (got {pipeline})"
        );
        let (keys, registers) = bind_keys(addr, ClientConfig::default(), shards)?;
        Ok(RemoteTarget {
            addr: addr.to_string(),
            keys,
            pipeline,
            conns_per_worker,
            registers,
            recorder: None,
            next_ctx: AtomicUsize::new(0),
        })
    }

    /// Attach a client-side flight recorder: every lockstep resolution
    /// is sent with a fresh wire trace span (`docs/WIRE.md`) and lands
    /// a `ClientSpan` event on the worker's lane, pairable with the
    /// server's dump by `rtas-trace merge`.
    ///
    /// Negotiates first with a traced `STATS` probe
    /// (`Client::probe_trace`): old servers — and pipelined targets,
    /// whose blind batches are deliberately untraced (the window
    /// bookkeeping has no per-frame completion point to time) — keep
    /// the recorder detached, with a warning on stderr rather than an
    /// error.
    ///
    /// # Errors
    ///
    /// Fails only if the negotiation probe cannot reach the server.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
    ) -> Result<RemoteTarget, ClientError> {
        if self.pipeline > 1 {
            eprintln!(
                "rtas-load: warning: the pipelined path is untraced (blind \
                 batches have no per-frame completion point); tracing disabled"
            );
            return Ok(self);
        }
        self.recorder = negotiate_trace(&self.addr, ClientConfig::default(), recorder)?;
        Ok(self)
    }

    /// The server address the target drives.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The pipeline depth every worker connection runs at.
    pub fn pipeline(&self) -> usize {
        self.pipeline
    }
}

impl LoadTarget for RemoteTarget {
    type Ctx = RemoteCtx;

    fn context(&self) -> RemoteCtx {
        let clients = (0..self.conns_per_worker)
            .map(|_| {
                Client::connect(&self.addr)
                    .unwrap_or_else(|e| panic!("cannot connect load worker to {}: {e}", self.addr))
            })
            .collect();
        let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
        RemoteCtx {
            clients,
            at: 0,
            inflight: VecDeque::with_capacity(self.pipeline),
            tracer: self
                .recorder
                .as_ref()
                .map(|r| ClientTracer::new(Arc::clone(r), ctx)),
        }
    }

    fn acquire(&self, ctx: &mut RemoteCtx, shard: usize) -> bool {
        let key = &self.keys[shard];
        // Round-robin the fan-out: each resolution (TAS and, for the
        // last finisher, its RESET) runs on one connection, and every
        // connection takes its turn so all of them stay live.
        ctx.at = (ctx.at + 1) % ctx.clients.len();
        if self.pipeline > 1 {
            // Sole participant: ship the epoch's TAS and its RESET ack
            // as one two-frame batch (one write syscall) and only block
            // once the window holds `pipeline` undrained epochs. The
            // deferred verdict is checked in drain_one — a loss panics,
            // so returning `true` here cannot corrupt the win
            // accounting silently.
            ctx.clients[ctx.at]
                .send_batch(&[(Op::Tas, key), (Op::Reset, key)])
                .unwrap_or_else(|e| panic!("pipelined batch on {} failed: {e}", self.addr));
            ctx.inflight.push_back(shard);
            if ctx.inflight.len() >= self.pipeline {
                ctx.drain_one();
            }
            return true;
        }
        match ctx.round_trip(Op::Tas, key) {
            Ok(Response::Acquired(a)) => a.won,
            Ok(other) => panic!("TAS on {}: expected a verdict, got {other:?}", self.addr),
            Err(e) => panic!("TAS on {} failed: {e}", self.addr),
        }
    }

    fn recycle(&self, ctx: &mut RemoteCtx, shard: usize, _epoch: u64) {
        if self.pipeline > 1 {
            // The acquire's batch already carried this epoch's ack.
            return;
        }
        // Every call of the epoch has its response, so the server-side
        // gate is quiescent the moment this RESET is admitted.
        match ctx.round_trip(Op::Reset, &self.keys[shard]) {
            Ok(Response::Reset { .. }) => {}
            Ok(other) => panic!("RESET on {}: expected an ack, got {other:?}", self.addr),
            Err(e) => panic!("RESET on {} failed: {e}", self.addr),
        }
    }

    fn registers(&self) -> u64 {
        self.registers
    }
}

/// Run the specified workload against the `rtas-svc` server at `addr`
/// (see [`RemoteTarget`]); the outcome reports as `svc_load`.
///
/// `spec.backend` is ignored — the server chose its algorithm at
/// `serve` time; rows are labeled `backend=remote`. `spec.pipeline`
/// sets every worker connection's pipelining depth (see the [module
/// docs](self)).
///
/// # Errors
///
/// Fails if the server is unreachable or refuses the probe. The
/// initial fleet's connections are opened before any worker spawns, so
/// a connect failure panics cleanly before traffic starts. Transport
/// failures *during* the run (or on a churn respawn's fresh
/// connection) panic the affected worker — peers of its unfinished
/// epoch then wait, so the run fails loudly rather than silently
/// dropping offered operations.
///
/// # Panics
///
/// Panics on an inconsistent spec (see [`LoadSpec`] field docs).
pub fn run_load_remote(addr: &str, spec: LoadSpec) -> Result<LoadOutcome, ClientError> {
    run_load_remote_traced(addr, spec, None)
}

/// [`run_load_remote`] with an optional client-side flight recorder
/// (see [`RemoteTarget::with_recorder`]): the caller keeps the `Arc`
/// and dumps the rings after the run (`rtas-load --trace` /
/// `--trace-out`). Passing `None` is exactly `run_load_remote`.
///
/// # Errors
///
/// As [`run_load_remote`], plus a failed trace-negotiation probe.
pub fn run_load_remote_traced(
    addr: &str,
    spec: LoadSpec,
    recorder: Option<Arc<FlightRecorder>>,
) -> Result<LoadOutcome, ClientError> {
    spec.validate();
    let conns_per_worker = spec.conns.map_or(1, |c| c / spec.threads);
    let mut target = RemoteTarget::with_shape(addr, spec.shards, spec.pipeline, conns_per_worker)?;
    if let Some(recorder) = recorder {
        target = target.with_recorder(recorder)?;
    }
    let kind = if spec.conns.is_some() {
        TargetKind::C10k
    } else {
        TargetKind::Remote
    };
    Ok(run_on_target(&target, spec, kind))
}

/// Scrape a server's `METRICS` exposition into the curated `svc_*`
/// report extras a remote run attaches to its `scope=total` row
/// ([`LoadOutcome::svc_extras`]).
///
/// The set is **fixed** — nine extras, always in this order, every name
/// present even when the server reports nothing for it (a threads
/// engine has no `reactor.worker<k>.*` gauges; the sums are then 0) —
/// so baseline and current reports always carry identical value keys
/// and `bench-diff` can gate them structurally:
///
/// `svc_ops`, `svc_wins`, `svc_resets`, `svc_reclaimed`, `svc_refused`
/// (the namespace counters), `svc_wake_writes`, `svc_carryovers`
/// (reactor counters), and `svc_slab_live` / `svc_wheel_entries`
/// (per-worker gauges summed across workers).
///
/// Errors carry a printable message; callers warn and omit the extras
/// rather than failing a finished run over a scrape.
pub fn scrape_svc_extras(addr: &str) -> Result<Vec<(String, f64)>, String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("connect for metrics scrape: {e}"))?;
    let text = client
        .metrics()
        .map_err(|e| format!("METRICS request: {e}"))?;
    let parsed = rtas_svc::obs::parse_metrics(&text)
        .ok_or_else(|| "malformed metrics exposition".to_string())?;
    let value = |name: &str| -> f64 {
        parsed
            .iter()
            .find(|(k, _)| k.as_str() == name)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    let worker_sum = |suffix: &str| -> f64 {
        parsed
            .iter()
            .filter(|(k, _)| k.starts_with("reactor.worker") && k.ends_with(suffix))
            .map(|&(_, v)| v)
            .sum()
    };
    Ok(vec![
        ("svc_ops".to_string(), value("svc.ops")),
        ("svc_wins".to_string(), value("svc.wins")),
        ("svc_resets".to_string(), value("svc.resets")),
        ("svc_reclaimed".to_string(), value("svc.reclaimed")),
        ("svc_refused".to_string(), value("svc.refused")),
        ("svc_wake_writes".to_string(), value("reactor.wake_writes")),
        ("svc_carryovers".to_string(), value("reactor.carryovers")),
        ("svc_slab_live".to_string(), worker_sum(".slab_live")),
        (
            "svc_wheel_entries".to_string(),
            worker_sum(".wheel_entries"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_svc::obs::TraceMode;

    #[test]
    fn tracer_spans_are_unique_across_contexts_and_never_zero() {
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 4));
        let mut a = ClientTracer::new(Arc::clone(&recorder), 0);
        let mut b = ClientTracer::new(Arc::clone(&recorder), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(a.mint()));
            assert!(seen.insert(b.mint()));
        }
        assert!(!seen.contains(&0));
        assert!(a.enabled());
    }

    #[test]
    fn tracer_records_client_spans_on_its_worker_lane() {
        let recorder = Arc::new(FlightRecorder::new(TraceMode::On, 2));
        let mut tracer = ClientTracer::new(Arc::clone(&recorder), 1);
        let span = tracer.mint();
        tracer.record(Op::Tas, span, 12_345);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::ClientSpan as u32);
        assert_eq!(events[0].lane, 3); // worker 1 = lane 2 + 1
        assert_eq!(events[0].a, u32::from(Op::Tas.code()));
        assert_eq!(events[0].b, span);
        assert_eq!(events[0].c, 12_345);
    }
}
