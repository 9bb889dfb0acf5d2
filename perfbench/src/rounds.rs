//! The untraced measurement (`--trace 0`): repeated fixed-work rounds,
//! each with its own set-up, reported as medians over rounds.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rtas_svc::SvcStats;

use crate::drive::{connect_lanes, drive, drive_clients, CorePort, CoreTable, LaneLog};
use crate::ledger;
use crate::os;
use crate::serve::ServerChild;
use crate::stats::{median, quantile, quantile_of};
use crate::workload::{find, Stream, Workload, LANES};
use crate::{Metric, Outcome};

/// At least this many rounds, however long they take: medians need them.
const MIN_ROUNDS: usize = 3;

/// One round's readings.
struct Round {
    setup_s: f64,
    wall_s: f64,
    ops: u64,
    /// Exact quantiles over every measured op of the round.
    p50_ns: f64,
    p90_ns: f64,
    cpu_s: f64,
    peak_rss_b: u64,
}

/// Check every phase's answers against the one-winner ledger, noting
/// failed requests. Returns the key-epochs resolved and the verdicts
/// received.
pub fn account(phases: &[&[LaneLog]], outcome: &mut Outcome) -> (u64, u64) {
    let mut verdicts = Vec::new();
    let mut acks = Vec::new();
    for log in phases.iter().flat_map(|p| p.iter()) {
        verdicts.extend_from_slice(&log.verdicts);
        acks.extend_from_slice(&log.acks);
        for e in &log.errors {
            outcome.problem(format!("request.failed: {e}"));
        }
    }
    let epochs = match ledger::check(&verdicts, &acks, LANES) {
        Ok(epochs) => epochs,
        Err(e) => {
            outcome.problem(e);
            0
        }
    };
    (epochs, verdicts.len() as u64)
}

/// Cross-check the server's own counters against what the clients saw.
pub fn check_stats(stats: SvcStats, verdicts: u64, epochs: u64, keys: u64, outcome: &mut Outcome) {
    let checks = [
        ("stats.ops", stats.ops, verdicts, "verdicts received"),
        ("stats.wins", stats.wins, epochs, "key-epochs resolved"),
        ("stats.resets", stats.resets, epochs, "key-epochs acked"),
        ("stats.keys", stats.keys, keys, "distinct keys sent"),
        (
            "stats.reclaimed",
            stats.reclaimed,
            0,
            "lease reclaims expected",
        ),
    ];
    for (name, server, client, what) in checks {
        if server != client {
            outcome.problem(format!(
                "{name}: server reports {server}, clients saw {client} {what}"
            ));
        }
    }
}

fn served_round(
    w: &Workload,
    seed: u64,
    round: u64,
    outcome: &mut Outcome,
) -> Result<Round, String> {
    let stream = &Stream::generate(w, seed, round, w.round);
    let t0 = Instant::now();
    let server = ServerChild::spawn(w.capacity).map_err(|e| format!("setup.spawn: {e}"))?;
    let mut clients = connect_lanes(server.addr).map_err(|e| format!("setup.connect: {e}"))?;
    let warm = drive_clients(&mut clients, stream, 0..stream.warmup, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu = || -> Result<f64, String> {
        Ok(os::cpu_seconds(None).map_err(|e| e.to_string())?
            + os::cpu_seconds(Some(server.pid())).map_err(|e| e.to_string())?)
    };
    let cpu0 = cpu()?;
    let t1 = Instant::now();
    let measured = drive_clients(&mut clients, stream, stream.warmup..stream.epochs(), None);
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = cpu()? - cpu0;
    let peak_rss_b = os::status_bytes(Some(server.pid()), "VmHWM").map_err(|e| e.to_string())?;
    let (epochs, verdicts) = account(&[&warm, &measured], outcome);
    count_requests(&measured, outcome);
    match clients[0].stats() {
        Ok(stats) => check_stats(
            stats,
            verdicts,
            epochs,
            stream.keys_touched(stream.epochs()),
            outcome,
        ),
        Err(e) => outcome.problem(format!("stats.fetch: {e}")),
    }
    drop(clients);
    server.stop().map_err(|e| format!("teardown: {e}"))?;
    Ok(summarize(setup_s, wall_s, cpu_s, peak_rss_b, &measured))
}

/// One in-process round, measured inside the `perfbench lanes` child.
fn measure_inproc(w: &Workload, stream: &Stream, outcome: &mut Outcome) -> Result<Round, String> {
    let t0 = Instant::now();
    let table = CoreTable::new(stream.keys.len(), w.capacity);
    let mut ports: Vec<CorePort> = (0..LANES).map(|_| CorePort::new(&table)).collect();
    let warm = drive(&mut ports, stream, 0..stream.warmup, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = os::cpu_seconds(None).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let measured = drive(&mut ports, stream, stream.warmup..stream.epochs(), None);
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = os::cpu_seconds(None).map_err(|e| e.to_string())? - cpu0;
    let peak_rss_b = os::status_bytes(None, "VmHWM").map_err(|e| e.to_string())?;
    account(&[&warm, &measured], outcome);
    count_requests(&measured, outcome);
    Ok(summarize(setup_s, wall_s, cpu_s, peak_rss_b, &measured))
}

/// Entry point of `perfbench lanes <workload> <seed> <round>`: run one
/// in-process round and print its readings, then any failed checks.
pub fn lanes_child(args: &[String]) -> ExitCode {
    let parsed = match args {
        [name, seed, round] => find(name)
            .zip(seed.parse::<u64>().ok())
            .zip(round.parse::<u64>().ok()),
        _ => None,
    };
    let Some(((w, seed), round)) = parsed else {
        eprintln!("perfbench lanes: expected <workload> <seed> <round>, got {args:?}");
        return ExitCode::from(2);
    };
    let stream = Stream::generate(w, seed, round, w.round);
    let mut outcome = Outcome::default();
    match measure_inproc(w, &stream, &mut outcome) {
        Ok(r) => println!(
            "round {} {} {} {} {} {} {} {} {}",
            r.setup_s,
            r.wall_s,
            r.ops,
            r.p50_ns,
            r.p90_ns,
            r.cpu_s,
            r.peak_rss_b,
            outcome.attempted,
            outcome.failed
        ),
        Err(e) => outcome.problem(e),
    }
    for p in &outcome.problems {
        println!("problem {p}");
    }
    ExitCode::SUCCESS
}

/// An in-process round runs in a fresh child process, so the peak
/// resident memory read is the round's own, as a served round's is the
/// server child's.
fn inproc_round(
    w: &Workload,
    seed: u64,
    round: u64,
    outcome: &mut Outcome,
) -> Result<Round, String> {
    let out = Command::new(std::env::current_exe().map_err(|e| format!("setup.spawn: {e}"))?)
        .args(["lanes", w.name, &seed.to_string(), &round.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("setup.spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "setup.spawn: round child exited with {}",
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut round = None;
    for line in text.lines() {
        if let Some(p) = line.strip_prefix("problem ") {
            outcome.problem(p.to_string());
        } else if let Some(fields) = line.strip_prefix("round ") {
            let v: Vec<f64> = fields.split(' ').filter_map(|f| f.parse().ok()).collect();
            if let [setup_s, wall_s, ops, p50_ns, p90_ns, cpu_s, peak_rss_b, attempted, failed] =
                v[..]
            {
                outcome.attempted += attempted as u64;
                outcome.failed += failed as u64;
                round = Some(Round {
                    setup_s,
                    wall_s,
                    ops: ops as u64,
                    p50_ns,
                    p90_ns,
                    cpu_s,
                    peak_rss_b: peak_rss_b as u64,
                });
            }
        }
    }
    round.ok_or_else(|| format!("round child reported no readings: {text:?}"))
}

/// Add the measured phase's requests to the outcome's totals.
pub fn count_requests(logs: &[LaneLog], outcome: &mut Outcome) {
    outcome.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    outcome.failed += logs.iter().map(|l| l.failed).sum::<u64>();
}

fn summarize(setup_s: f64, wall_s: f64, cpu_s: f64, peak_rss_b: u64, logs: &[LaneLog]) -> Round {
    let mut lat: Vec<u32> = logs.iter().flat_map(|l| l.lat_ns.iter().copied()).collect();
    let p50_ns = quantile_of(&mut lat, 0.5);
    Round {
        setup_s,
        wall_s,
        ops: lat.len() as u64,
        p50_ns,
        p90_ns: quantile(&lat, 0.90),
        cpu_s,
        peak_rss_b,
    }
}

/// Run rounds of `w` until `seconds` of measured time have passed.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let mut rounds = Vec::new();
    let mut measured_s = 0.0;
    while rounds.len() < MIN_ROUNDS || measured_s < seconds {
        let r = rounds.len() as u64;
        let round = if w.served {
            served_round(w, seed, r, &mut outcome)
        } else {
            inproc_round(w, seed, r, &mut outcome)
        };
        match round {
            Ok(r) => {
                eprintln!(
                    "  round {:>2}: {:>9.0} ops/s  p50 {:>8.2} us  p90 {:>8.2} us  setup {:.4} s  ({} ops)",
                    rounds.len(),
                    r.ops as f64 / r.wall_s,
                    r.p50_ns / 1e3,
                    r.p90_ns / 1e3,
                    r.setup_s,
                    r.ops
                );
                measured_s += r.wall_s;
                rounds.push(r);
            }
            Err(e) => {
                outcome.problem(e);
                break;
            }
        }
        if !outcome.problems.is_empty() {
            break;
        }
    }
    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    outcome.samples = rounds.iter().map(|r| r.ops).sum();
    // Medians over rounds keep a burst of host stalls inside a few rounds
    // from moving the whole run's tail.
    outcome.metrics = vec![
        Metric::new("ops_per_s", "1/s", per(&|r| r.ops as f64 / r.wall_s)),
        Metric::new("op_p50_us", "us", per(&|r| r.p50_ns / 1e3)),
        Metric::new("op_p90_us", "us", per(&|r| r.p90_ns / 1e3)),
        // Summed over rounds, not a median: CPU time is read in 10 ms
        // ticks, too coarse for one round.
        Metric::new(
            "cpu_us_per_op",
            "us",
            rounds.iter().map(|r| r.cpu_s).sum::<f64>() * 1e6 / outcome.samples.max(1) as f64,
        ),
        Metric::new(
            "peak_rss_mb",
            "MB",
            per(&|r| r.peak_rss_b as f64 / (1u64 << 20) as f64),
        ),
        Metric::new("setup_s", "s", per(&|r| r.setup_s)),
    ];
    outcome
}
