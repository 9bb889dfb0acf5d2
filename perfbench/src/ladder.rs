//! The traced run (`--trace 1`): one seeded stream replayed down the
//! layer ladder, each rung timed around its own call into the program.
//!
//! | rung   | call timed                                        |
//! |--------|---------------------------------------------------|
//! | client | `svc::Client` send to decoded verdict, loopback   |
//! | conn   | `svc::Connection::ingest` of the frame, no I/O    |
//! | ns     | `svc::Namespace::acquire` / `reset`               |
//! | core   | `rtas::TestAndSet::test_and_set_with` / `reset`   |
//! | sim    | the paper's protocol in the `sim` executor        |
//!
//! Op `j` of lane `l` is the same request on every rung, so a layer's
//! self time is its span minus the span of the rung below for that same
//! op; medians are taken over ops. Spans stay in memory and are written
//! to `bench-out/perfbench/` when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rtas::algorithms::{Combined, LogStarLe};
use rtas::sim::adversary::RandomSchedule;
use rtas::sim::executor::Execution;
use rtas::sim::memory::Memory;
use rtas::sim::protocol::{ret, Protocol};
use rtas::sim::rng::SplitMix64;
use rtas_svc::obs::parse_metrics;
use rtas_svc::{Client, ConnGauges, Namespace};

use crate::drive::{
    connect_lanes, drive, drive_clients, ConnPort, CorePort, CoreTable, LaneLog, NsPort,
};
use crate::os;
use crate::rounds::{account, check_stats, count_requests};
use crate::serve::{serve_config, ServerChild};
use crate::stats::{quantile, quantile_of};
use crate::workload::{Stream, Workload, LANES};
use crate::{Metric, Outcome};

/// Round index of the ladder stream (distinct from every measured round).
const LADDER_ROUND: u64 = u64::MAX - 1;
/// Epochs per sequence simulated on the `sim` rung.
const SIM_EPOCHS: usize = 200;

/// One rung's measured logs plus what only some rungs know.
#[derive(Default)]
struct Rung {
    logs: Vec<LaneLog>,
    /// Warm-up logs (kept for first-contact samples).
    warm: Vec<LaneLog>,
    /// Server counters over the measured phase, client rungs only.
    carryovers: f64,
    wake_writes: f64,
}

impl Rung {
    fn ops(&self) -> u64 {
        self.logs.iter().map(|l| l.lat_ns.len() as u64).sum()
    }

    fn lat(&self) -> Vec<u32> {
        self.logs
            .iter()
            .flat_map(|l| l.lat_ns.iter().copied())
            .collect()
    }

    fn p50_ns(&self) -> f64 {
        quantile_of(&mut self.lat(), 0.5)
    }

    /// `f` summed over lanes, per answered op.
    fn per_op(&self, f: fn(&LaneLog) -> u64) -> f64 {
        self.logs.iter().map(f).sum::<u64>() as f64 / self.ops().max(1) as f64
    }
}

fn scrape(client: &mut Client) -> Result<(f64, f64), String> {
    let text = client
        .metrics()
        .map_err(|e| format!("metrics.fetch: {e}"))?;
    let metrics = parse_metrics(&text).ok_or("metrics.parse: unreadable exposition")?;
    let get = |name: &str| -> Result<f64, String> {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or(format!("metrics.{name}: missing from the exposition"))
    };
    Ok((get("reactor.carryovers")?, get("reactor.wake_writes")?))
}

/// The client rung, on one server: first an untraced pass over `stream`
/// with every key renamed (same shape, keys of its own), then the traced
/// pass over `stream` itself. Returns the traced rung and the untraced
/// pass's median op latency.
fn client_rung(w: &Workload, stream: &Stream, out: &mut Outcome) -> Result<(Rung, f64), String> {
    let server = ServerChild::spawn(w.capacity).map_err(|e| format!("setup.spawn: {e}"))?;
    let mut clients = connect_lanes(server.addr).map_err(|e| format!("setup.connect: {e}"))?;
    let measured = stream.warmup..stream.epochs();
    let mut twin = stream.clone();
    for key in &mut twin.keys {
        key.insert(0, b'u');
    }
    let twin_warm = drive_clients(&mut clients, &twin, 0..twin.warmup, None);
    let untraced = Rung {
        logs: drive_clients(&mut clients, &twin, measured.clone(), None),
        ..Rung::default()
    };
    let warm = drive_clients(&mut clients, stream, 0..stream.warmup, None);
    let (carry0, wake0) = scrape(&mut clients[0])?;
    let logs = drive_clients(&mut clients, stream, measured, Some(Instant::now()));
    let (carry1, wake1) = scrape(&mut clients[0])?;
    // Separate ledgers: the twin's key ids name other keys.
    let (twin_epochs, twin_verdicts) = account(&[&twin_warm, &untraced.logs], out);
    let (epochs, verdicts) = account(&[&warm, &logs], out);
    let stats = clients[0]
        .stats()
        .map_err(|e| format!("stats.fetch: {e}"))?;
    check_stats(
        stats,
        verdicts + twin_verdicts,
        epochs + twin_epochs,
        2 * stream.keys_touched(stream.epochs()),
        out,
    );
    drop(clients);
    server.stop().map_err(|e| format!("teardown: {e}"))?;
    let rung = Rung {
        logs,
        warm,
        carryovers: carry1 - carry0,
        wake_writes: wake1 - wake0,
    };
    Ok((rung, untraced.p50_ns()))
}

fn namespace(w: &Workload) -> Namespace {
    let c = serve_config(w.capacity);
    Namespace::with_max_keys(c.backend, c.shards, c.capacity, c.max_keys)
}

fn conn_rung(w: &Workload, stream: &Stream, out: &mut Outcome) -> Rung {
    let ns = namespace(w);
    let gauges = ConnGauges::default();
    let mut ports: Vec<ConnPort> = (0..LANES).map(|_| ConnPort::new(&ns, &gauges)).collect();
    let warm = drive(&mut ports, stream, 0..stream.warmup, None);
    let logs = drive(
        &mut ports,
        stream,
        stream.warmup..stream.epochs(),
        Some(Instant::now()),
    );
    account(&[&warm, &logs], out);
    Rung {
        logs,
        warm,
        ..Rung::default()
    }
}

fn ns_rung(w: &Workload, stream: &Stream, out: &mut Outcome) -> Rung {
    let ns = namespace(w);
    let mut ports: Vec<NsPort> = (0..LANES).map(|_| NsPort::new(&ns)).collect();
    let origin = Some(Instant::now());
    let warm = drive(&mut ports, stream, 0..stream.warmup, origin);
    let logs = drive(&mut ports, stream, stream.warmup..stream.epochs(), origin);
    account(&[&warm, &logs], out);
    Rung {
        logs,
        warm,
        ..Rung::default()
    }
}

fn core_rung(
    w: &Workload,
    stream: &Stream,
    traced: bool,
    out: &mut Outcome,
) -> (Rung, Vec<u32>, u64) {
    let table = CoreTable::new(stream.keys.len(), w.capacity);
    let mut ports: Vec<CorePort> = (0..LANES).map(|_| CorePort::new(&table)).collect();
    let warm = drive(&mut ports, stream, 0..stream.warmup, None);
    let logs = drive(
        &mut ports,
        stream,
        stream.warmup..stream.epochs(),
        traced.then(Instant::now),
    );
    account(&[&warm, &logs], out);
    let builds = ports
        .iter()
        .flat_map(|p| p.build_ns.iter().copied())
        .collect();
    (
        Rung {
            logs,
            warm,
            ..Rung::default()
        },
        builds,
        table.registers(),
    )
}

/// Resident bytes one key adds to a namespace: the stream's keys created
/// in a fresh namespace, resident memory read before and after.
fn bytes_per_key(w: &Workload, stream: &Stream) -> Result<f64, String> {
    let ns = namespace(w);
    let mut runner = rtas::native::NativeRunner::new();
    let before = os::status_bytes(None, "VmRSS").map_err(|e| e.to_string())?;
    for key in &stream.keys {
        ns.acquire(rtas_svc::Kind::Tas, key, &mut runner)
            .map_err(|e| format!("namespace.create: {e}"))?;
    }
    let after = os::status_bytes(None, "VmRSS").map_err(|e| e.to_string())?;
    Ok(after.saturating_sub(before) as f64 / stream.keys.len() as f64)
}

/// Simulated steps per test-and-set: the participants of the first
/// measured epochs run the paper's Combined protocol under a seeded
/// random schedule.
fn sim_steps_per_op(w: &Workload, stream: &Stream, seed: u64, out: &mut Outcome) -> f64 {
    let (mut steps, mut ops) = (0u64, 0u64);
    for e in stream.warmup..(stream.warmup + SIM_EPOCHS).min(stream.epochs()) {
        let mut mem = Memory::new();
        let weak = Arc::new(LogStarLe::new(&mut mem, w.capacity));
        let le = Combined::new(&mut mem, weak, w.capacity);
        let protocols: Vec<Box<dyn Protocol>> = (0..LANES).map(|_| le.elect()).collect();
        let epoch_seed = SplitMix64::split(seed ^ LADDER_ROUND, e as u64).next_u64();
        let mut adversary = RandomSchedule::new(epoch_seed);
        let result = Execution::new(mem, protocols, epoch_seed).run(&mut adversary);
        let winners = result.processes_with_outcome(ret::WIN).len();
        if !result.all_finished() || winners != 1 {
            out.problem(format!(
                "sim.one_winner: epoch {e} had {winners} winners among {LANES}"
            ));
            return 0.0;
        }
        steps += result.steps().total();
        ops += LANES as u64;
    }
    steps as f64 / ops.max(1) as f64
}

/// Median over ops of `upper - lower` (minus the upper rung's own send
/// span when `minus_send`): the upper layer's self time. 0 when a failed
/// op broke the alignment of the rungs.
fn self_time(upper: &Rung, lower: &Rung, minus_send: bool) -> f64 {
    let mut diffs = Vec::new();
    for (u, d) in upper.logs.iter().zip(&lower.logs) {
        if u.lat_ns.len() != d.lat_ns.len() || (minus_send && u.send_ns.len() != u.lat_ns.len()) {
            return 0.0;
        }
        for j in 0..u.lat_ns.len() {
            let send = if minus_send {
                i64::from(u.send_ns[j])
            } else {
                0
            };
            diffs.push(signed(
                i64::from(u.lat_ns[j]) - i64::from(d.lat_ns[j]) - send,
            ));
        }
    }
    quantile_of(&mut diffs, 0.5)
}

fn signed(ns: i64) -> i32 {
    ns.clamp(i32::MIN.into(), i32::MAX.into()) as i32
}

fn write_spans(w: &Workload, seed: u64, rungs: &[(&str, &Rung)]) -> io::Result<PathBuf> {
    let dir = PathBuf::from("bench-out").join("perfbench");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.spans.tsv", w.name));
    let mut f = BufWriter::new(fs::File::create(&path)?);
    writeln!(f, "request\tlayer\tstart_ns\tdur_ns\tsend_ns")?;
    for (layer, rung) in rungs {
        for (lane, log) in rung.logs.iter().enumerate() {
            for (j, (&start, &dur)) in log.start_ns.iter().zip(&log.lat_ns).enumerate() {
                let send = log.send_ns.get(j).map_or(String::new(), u32::to_string);
                writeln!(f, "{lane}.{j}\t{layer}\t{start}\t{dur}\t{send}")?;
            }
        }
    }
    f.flush()?;
    Ok(path)
}

pub fn run(w: &Workload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    match ladder(w, seed, &mut out) {
        Ok(metrics) => out.metrics = metrics,
        Err(e) => out.problem(e),
    }
    out
}

fn ladder(w: &Workload, seed: u64, out: &mut Outcome) -> Result<Vec<Metric>, String> {
    let stream = Stream::generate(w, seed, LADDER_ROUND, w.ladder);
    let (client, untraced_client_p50) = client_rung(w, &stream, out)?;
    // Requests are counted on the traced full-stack replay only.
    count_requests(&client.logs, out);
    let conn = conn_rung(w, &stream, out);
    let ns = ns_rung(w, &stream, out);
    let (core, builds, registers) = core_rung(w, &stream, true, out);
    // The tracing overhead is measured on the workload's own entry rung;
    // for the in-process workload that is core, on a table of its own.
    let untraced_p50 = if w.served {
        untraced_client_p50
    } else {
        core_rung(w, &stream, false, out).0.p50_ns()
    };
    let steps = sim_steps_per_op(w, &stream, seed, out);
    let bytes = bytes_per_key(w, &stream)?;
    out.samples = client.ops();

    let ops = client.ops().max(1) as f64;
    let mut send: Vec<u32> = client
        .logs
        .iter()
        .flat_map(|l| l.send_ns.iter().copied())
        .collect();
    let mut recv: Vec<i32> = client
        .logs
        .iter()
        .flat_map(|l| {
            l.lat_ns
                .iter()
                .zip(&l.send_ns)
                .map(|(&t, &s)| signed(i64::from(t) - i64::from(s)))
        })
        .collect();
    let reactor_self = self_time(&client, &conn, true);
    let conn_self = self_time(&conn, &ns, false);
    let ns_self = self_time(&ns, &core, false);
    let send_p50 = quantile_of(&mut send, 0.5);

    // First contact on a key: its acquire creates the entry.
    let mut creates = Vec::new();
    let mut acquires = Vec::new();
    for (phase, range) in [
        (&ns.warm, 0..stream.warmup),
        (&ns.logs, stream.warmup..stream.epochs()),
    ] {
        for log in phase {
            for (&lat, e) in log.lat_ns.iter().zip(range.clone()) {
                if stream.first[e] {
                    creates.push(lat);
                } else if e >= stream.warmup {
                    acquires.push(lat);
                }
            }
        }
    }
    creates.sort_unstable();
    acquires.sort_unstable();
    let mut core_lat = core.lat();
    core_lat.sort_unstable();
    let resets = |r: &Rung| -> f64 {
        let mut v: Vec<u32> = r
            .logs
            .iter()
            .flat_map(|l| l.reset_ns.iter().copied())
            .collect();
        quantile_of(&mut v, 0.5)
    };
    let mut builds = builds;
    let traced_p50 = client.p50_ns();
    let entry_traced_p50 = if w.served {
        traced_p50
    } else {
        quantile(&core_lat, 0.5)
    };
    let self_sum = send_p50 + reactor_self + conn_self + ns_self + quantile(&core_lat, 0.5);

    let path = write_spans(
        w,
        seed,
        &[
            ("client", &client),
            ("conn", &conn),
            ("namespace", &ns),
            ("core", &core),
        ],
    )
    .map_err(|e| format!("spans.write: {e}"))?;
    eprintln!("  spans written to {}", path.display());

    let frames: u64 = client.logs.iter().map(|l| l.frames).sum();
    let writes: u64 = client.logs.iter().map(|l| l.writes).sum();
    let kops = ops / 1e3;
    Ok(vec![
        Metric::new("sim.steps_per_op", "count", steps),
        Metric::new("core.resolve_ns_p50", "ns", quantile(&core_lat, 0.5)),
        Metric::new("core.resolve_ns_p99", "ns", quantile(&core_lat, 0.99)),
        Metric::new("core.reset_ns", "ns", resets(&core)),
        Metric::new("core.build_us", "us", quantile_of(&mut builds, 0.5) / 1e3),
        Metric::new("core.registers", "count", registers as f64),
        Metric::new("core.gate_wait_ns", "ns", core.per_op(|l| l.gate_wait_ns)),
        Metric::new("namespace.acquire_ns_p50", "ns", quantile(&acquires, 0.5)),
        Metric::new("namespace.acquire_ns_p99", "ns", quantile(&acquires, 0.99)),
        Metric::new("namespace.reset_ns", "ns", resets(&ns)),
        Metric::new(
            "namespace.create_us_p50",
            "us",
            quantile(&creates, 0.5) / 1e3,
        ),
        Metric::new(
            "namespace.create_us_p99",
            "us",
            quantile(&creates, 0.99) / 1e3,
        ),
        Metric::new("namespace.bytes_per_key", "B", bytes),
        Metric::new("namespace.self_ns", "ns", ns_self),
        Metric::new("conn.ingest_ns_per_frame", "ns", conn.p50_ns()),
        Metric::new("conn.self_ns_per_frame", "ns", conn_self),
        Metric::new("reactor.rtt_self_us", "us", reactor_self / 1e3),
        Metric::new(
            "reactor.carryovers_per_kop",
            "count",
            client.carryovers / kops,
        ),
        Metric::new(
            "reactor.wake_writes_per_kop",
            "count",
            client.wake_writes / kops,
        ),
        Metric::new("client.send_ns", "ns", send_p50),
        Metric::new(
            "client.frames_per_write",
            "count",
            frames as f64 / writes.max(1) as f64,
        ),
        Metric::new(
            "client.recv_wait_us",
            "us",
            quantile_of(&mut recv, 0.5) / 1e3,
        ),
        Metric::new(
            "client.gate_wait_us",
            "us",
            client.per_op(|l| l.gate_wait_ns) / 1e3,
        ),
        Metric::new("ladder.op_p50_us", "us", traced_p50 / 1e3),
        Metric::new("ladder.self_sum_us", "us", self_sum / 1e3),
        Metric::new(
            "ladder.tracing_overhead_us",
            "us",
            (entry_traced_p50 - untraced_p50) / 1e3,
        ),
    ])
}
