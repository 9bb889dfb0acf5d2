//! `rtas-trace` — cross-tier trace tooling over `RTASTRC1` dumps.
//!
//! ```text
//! rtas-trace merge <client.rtastrc> <server.rtastrc> [--json] [--bench]
//! rtas-trace audit <dump.rtastrc>...
//! ```
//!
//! `merge` joins a client dump and a server dump on span id (see
//! `docs/WIRE.md` for the wire trace extension) and prints per-request
//! end-to-end timelines with a network/server/queue latency breakdown;
//! `--json` emits the same as one JSON object, `--bench` additionally
//! writes `BENCH_svc_e2e.json` (honoring `RTAS_BENCH_DIR`).
//!
//! `audit` replays arbitration evidence from one or more dumps —
//! including merged client+server evidence — and verifies the paper's
//! safety claim offline: exactly one winner per key-epoch, no verdict
//! after that epoch's lease reclaim, no duplicate acks or reclaims.
//! Exits nonzero on any violation, so CI and operators can gate on it.

use std::process::ExitCode;

use rtas_bench::e2e::bench_report;
use rtas_obs::{
    audit_events, decode_dump, merge_spans, render_merge_json, render_merge_timeline, TraceDump,
};

fn usage() -> String {
    "usage: rtas-trace <command>\n\
     \n\
     commands:\n\
     \x20 merge <client.rtastrc> <server.rtastrc> [--json] [--bench]\n\
     \x20     join client and server dumps on span id; print per-request\n\
     \x20     end-to-end timelines and the network/server/queue breakdown\n\
     \x20     (--json for machines, --bench to write BENCH_svc_e2e.json)\n\
     \x20 audit <dump.rtastrc>...\n\
     \x20     verify one-winner-per-key-epoch and lease-reclaim ordering\n\
     \x20     from recorded evidence; exit 1 on any violation\n"
        .to_string()
}

fn load_dump(path: &str) -> Result<TraceDump, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    decode_dump(&bytes).map_err(|e| format!("cannot decode {path}: {e}"))
}

fn run_merge(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut json = false;
    let mut bench = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--bench" => bench = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown merge flag {flag}\n\n{}", usage()))
            }
            path => paths.push(path.to_string()),
        }
    }
    let [client_path, server_path] = paths.as_slice() else {
        return Err(format!(
            "merge takes exactly a client dump and a server dump\n\n{}",
            usage()
        ));
    };
    let client = load_dump(client_path)?;
    let server = load_dump(server_path)?;
    let merged = merge_spans(&client.merged(), &server.merged());
    if json {
        print!("{}", render_merge_json(&merged));
    } else {
        print!("{}", render_merge_timeline(&merged));
    }
    if bench {
        let path = bench_report(&merged)
            .write()
            .map_err(|e| format!("cannot write BENCH_svc_e2e.json: {e}"))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn run_audit(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        return Err(format!("audit takes one or more dump files\n\n{}", usage()));
    }
    let mut events = Vec::new();
    for path in args {
        events.extend(load_dump(path)?.merged());
    }
    let report = audit_events(&events);
    print!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("merge") => run_merge(&args[1..]),
        Some("audit") => run_audit(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", usage())),
        None => Err(usage()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
