//! The end-to-end latency report: turn a cross-tier span merge
//! ([`rtas_obs::merge_spans`]) into the structurally gated
//! `BENCH_svc_e2e.json` (`rtas-trace merge --bench`).
//!
//! Statistics here are exact, read off the sorted paired sample rather
//! than the log-bin estimates of [`crate::stats`]: the report's values
//! are wall-clock-derived (`gate=wall`), and its committed baseline
//! gates only their shape and finiteness.

use rtas_obs::MergeOutcome;

use crate::report::{BenchReport, BenchRow};

/// Sorted-sample percentile (nearest rank on the `q∈[0,1]` scale);
/// `0.0` for an empty sample so report fields stay finite.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Distribution statistics over a sample, every value finite (zeros
/// for an empty sample): mean, worst, min, stddev, ci95, p50, p90, p99.
fn dist(mut xs: Vec<f64>) -> (f64, f64, f64, f64, f64, f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    let stddev = var.sqrt();
    let ci95 = 1.96 * stddev / n.sqrt();
    (
        mean,
        xs[xs.len() - 1],
        xs[0],
        stddev,
        ci95,
        percentile(&xs, 0.50),
        percentile(&xs, 0.90),
        percentile(&xs, 0.99),
    )
}

/// Build the structurally-gated `BENCH_svc_e2e.json` report from a
/// merge: one `k=0` row whose core statistics are the end-to-end RTT
/// distribution in microseconds, with the latency decomposition and
/// pairing accounting as extras. `trials` is pinned to 0 (pair counts
/// are run-dependent; the *shape* is what the baseline gates), the row
/// is labeled `gate=wall` so timing values only gate under
/// `bench-diff --gate-wall`, and every value is finite even for an
/// empty merge so finiteness flips stay structural failures.
pub fn bench_report(m: &MergeOutcome) -> BenchReport {
    let rtts_us: Vec<f64> = m
        .pairs
        .iter()
        .filter(|p| p.server_dur_ns.is_some())
        .map(|p| p.rtt_ns as f64 / 1e3)
        .collect();
    let servers_us: Vec<f64> = m
        .pairs
        .iter()
        .filter_map(|p| p.server_dur_ns)
        .map(|d| d as f64 / 1e3)
        .collect();
    let queues_us: Vec<f64> = m
        .pairs
        .iter()
        .filter_map(|p| m.queue_ns(p))
        .map(|q| q as f64 / 1e3)
        .collect();
    let paired = rtts_us.len();
    let (mean, worst, min, stddev, ci95, p50, p90, p99) = dist(rtts_us);
    let (_, _, _, _, _, server_p50, _, _) = dist(servers_us);
    let (_, _, _, _, _, queue_p50, _, _) = dist(queues_us);
    let row = BenchRow {
        k: 0,
        trials: 0,
        mean,
        worst,
        min,
        stddev,
        ci95,
        p50,
        p90,
        p99,
        wall_ms: 0.0,
        extra: vec![
            ("pairs".to_string(), paired as f64),
            ("client_spans".to_string(), m.client_spans as f64),
            ("server_spans".to_string(), m.server_spans as f64),
            ("unpaired_client".to_string(), m.unpaired_client as f64),
            ("net_floor_us".to_string(), m.net_floor_ns as f64 / 1e3),
            ("e2e_p50_us".to_string(), p50),
            ("net_p50_us".to_string(), m.net_floor_ns as f64 / 1e3),
            ("server_p50_us".to_string(), server_p50),
            ("queue_p50_us".to_string(), queue_p50),
            ("clock_offset_ns".to_string(), m.clock_offset_ns as f64),
        ],
        labels: vec![
            ("scope".to_string(), "total".to_string()),
            ("gate".to_string(), "wall".to_string()),
        ],
    };
    let mut report = BenchReport::new("svc_e2e", 1);
    report.push(row);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtas_obs::{merge_spans, EventKind, TraceEvent};

    fn client_span(span: u64, end_ns: u64, rtt_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: end_ns,
            lane: 2,
            ticket: span,
            kind: EventKind::ClientSpan as u32,
            a: 1,
            b: span,
            c: rtt_ns,
        }
    }

    fn server_span(span: u64, end_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: end_ns,
            lane: 2,
            ticket: span,
            kind: EventKind::ServerSpan as u32,
            a: 1,
            b: span,
            c: dur_ns,
        }
    }

    #[test]
    fn bench_report_shape_is_pinned_and_finite() {
        let client = [client_span(7, 1_000_000, 100_000)];
        let server = [server_span(7, 900_000, 20_000)];
        for m in [merge_spans(&client, &server), merge_spans(&[], &[])] {
            let report = bench_report(&m);
            assert_eq!(report.name(), "svc_e2e");
            assert_eq!(report.rows().len(), 1);
            let row = &report.rows()[0];
            assert_eq!(row.k, 0);
            assert_eq!(row.trials, 0);
            assert_eq!(
                row.labels,
                vec![
                    ("scope".to_string(), "total".to_string()),
                    ("gate".to_string(), "wall".to_string()),
                ]
            );
            let extras: Vec<&str> = row.extra.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                extras,
                [
                    "pairs",
                    "client_spans",
                    "server_spans",
                    "unpaired_client",
                    "net_floor_us",
                    "e2e_p50_us",
                    "net_p50_us",
                    "server_p50_us",
                    "queue_p50_us",
                    "clock_offset_ns",
                ]
            );
            for (name, v) in row.metrics() {
                assert!(v.is_finite(), "{name} not finite");
            }
            for (name, v) in &row.extra {
                assert!(v.is_finite(), "{name} not finite");
            }
        }
        let report = bench_report(&merge_spans(&client, &server));
        let row = &report.rows()[0];
        assert_eq!(row.p50, 100.0); // 100_000ns RTT in us
        assert_eq!(row.extra[0].1, 1.0); // one pair
    }
}
