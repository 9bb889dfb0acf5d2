//! Drive the deterministic hostile-network layer against a live
//! server: [`RemoteTarget`] semantics behind `rtas-svc`'s
//! [`ChaosClient`] fault injection.
//!
//! [`ChaosTarget`] binds the same `load/s` keys as the remote target
//! and is transport only in the same way — `acquire` is a `TAS`,
//! `recycle` (run by the driver's epoch turn on the epoch's last
//! finisher) is the `RESET` ack — but every wire interaction passes
//! through a [`ChaosClient`] whose faults come from one seeded
//! [`FaultPlan`]: worker connection `c` replays fault stream `c`, and
//! the `RESET` ack for `(shard, local epoch)` draws its byzantine
//! faults as a *pure function* of those coordinates (never of which
//! racing worker sends it), so the entire fault schedule is a function
//! of `(seed, spec, workload)` alone. Local epochs are the turn's, and
//! count from 0 in every run. They always advance, even when the plan
//! skips the server ack, so workers never deadlock on a stranded
//! server epoch.
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
//! [`RemoteTarget`]: crate::remote::RemoteTarget

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rtas_svc::chaos::{ChaosClient, ChaosCounts, FaultPlan};
use rtas_svc::obs::FlightRecorder;
use rtas_svc::{Client, ClientConfig, ClientError, ClientTracer, Op};

use crate::driver::{run_on_target, LoadOutcome, LoadSpec, LoadTarget, TargetKind};
use crate::recorder::ErrorClasses;
use crate::remote::bind_keys;

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
    /// when set, every worker's [`ChaosClient`] stamps its wire
    /// attempts with fresh trace spans. Span minting never draws from
    /// the fault or jitter streams, so a traced run replays the same
    /// fault schedule as an untraced one.
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

    /// Attach a client-side flight recorder: every worker's
    /// [`ChaosClient`] stamps each wire attempt (retries included —
    /// each attempt mints a fresh span) and records `ClientSpan`
    /// events on its connection's lane. Negotiates with a traced
    /// `STATS` probe first; an old server keeps tracing detached with
    /// a warning, never an error.
    ///
    /// # Errors
    ///
    /// Fails only if the negotiation probe cannot reach the server.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
    ) -> Result<ChaosTarget, ClientError> {
        if !Client::connect_with(&self.addr, self.config.clone())?.probe_trace()? {
            eprintln!(
                "rtas-load: warning: {} does not speak the wire trace \
                 extension (old server?); tracing disabled",
                self.addr
            );
            return Ok(self);
        }
        self.recorder = Some(recorder);
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

/// One worker's context: the fault-injecting client plus a handle to
/// the target's counter sink, flushed on drop (worker retirement).
#[derive(Debug)]
pub struct ChaosCtx {
    client: ChaosClient,
    sink: Arc<Mutex<ChaosCounts>>,
}

impl Drop for ChaosCtx {
    fn drop(&mut self) {
        self.sink.lock().unwrap().merge(self.client.counts());
    }
}

impl LoadTarget for ChaosTarget {
    type Ctx = ChaosCtx;

    fn context(&self) -> ChaosCtx {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let mut client = ChaosClient::new(&self.addr, &self.plan, conn, self.config.clone());
        if let Some(recorder) = &self.recorder {
            client = client.with_tracer(ClientTracer::new(Arc::clone(recorder), conn as usize));
        }
        ChaosCtx {
            client,
            sink: Arc::clone(&self.counts),
        }
    }

    fn acquire(&self, ctx: &mut ChaosCtx, shard: usize) -> bool {
        let verdict = ctx
            .client
            .acquire(Op::Tas, &self.keys[shard])
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
        ctx.client
            .ack_reset(&self.keys[shard], faults)
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
