//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload straight|modulo|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop driven from this process through the
//! public APIs of `eit-core`, `eit-arch`, `eit-serve` and `eit-apps`.
//! Every op is checked (verifiers, simulation against the DSL reference,
//! served == one-shot) and every op time is host-normalized (see
//! [`calib`]). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). See
//! `NOTES.md` next to this crate for the workloads and metric
//! definitions.

mod calib;
mod harness;
mod modulo;
mod serve;
mod stats;
mod straight;

use std::process::exit;
use std::time::Instant;

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("code_cc", "cycles"),
    ("code_slots", "slots"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, in output order. A workload that
/// never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("dsl.build_ms", "ms"),
    ("dsl.nodes", "count"),
    ("ir.validate_ms", "ms"),
    ("ir.cse_ms", "ms"),
    ("ir.merge_ms", "ms"),
    ("ir.xml_parse_ms", "ms"),
    ("ir.cse_removed", "count"),
    ("ir.merged", "count"),
    ("ir.nodes_after", "count"),
    ("cp.schedule_ms", "ms"),
    ("cp.model_ms", "ms"),
    ("cp.search_ms", "ms"),
    ("cp.nodes", "count"),
    ("cp.fails", "count"),
    ("cp.propagations", "count"),
    ("modulo.lb_ms", "ms"),
    ("modulo.cp_sweep_ms", "ms"),
    ("modulo.probes", "count"),
    ("modulo.probes_infeasible", "count"),
    ("modulo.probe_nodes", "count"),
    ("modulo.probe_fails", "count"),
    ("modulo.ii_gap", "cycles"),
    ("sat.sweep_ms", "ms"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.decisions", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.count_drift", "count"),
    ("alloc.ms", "ms"),
    ("alloc.slots_used", "slots"),
    ("codegen.ms", "ms"),
    ("codegen.instructions", "count"),
    ("overlap.ms", "ms"),
    ("overlap.cc", "cycles"),
    ("render.ms", "ms"),
    ("render.bytes", "bytes"),
    ("verify.ms", "ms"),
    ("verify.violations", "count"),
    ("sim.ms", "ms"),
    ("sim.lane_cycles", "cycles"),
    ("sim.reconfig_switches", "count"),
    ("serve.hit_rtt_p50_ms", "ms"),
    ("serve.hit_rtt_p90_ms", "ms"),
    ("serve.miss_rtt_p50_ms", "ms"),
    ("serve.miss_rtt_p90_ms", "ms"),
    ("serve.queue_p90_ms", "ms"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.in_flight", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.inserts", "count"),
    ("serve.evictions", "count"),
    ("serve.rejected", "count"),
    ("host.ref_ms", "ms"),
    ("host.trace_overhead", "ratio"),
];

/// Raw wall-clock figures, reported only in the traced run (and on a
/// human-readable stdout line of the untraced run) so the normalization
/// can be checked against them.
pub const HOST_RAW: [(&str, &str); 4] = [
    ("host.wall_p50_ms", "ms"),
    ("host.wall_p90_ms", "ms"),
    ("host.wall_ops_per_s", "1/s"),
    ("host.setup_wall_s", "s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start, as seen by `main`.
    pub started: Instant,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload straight|modulo|serve --seed N --seconds S --trace 0|1");
    exit(2);
}

fn parse_args(started: Instant) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            started,
        },
        _ => usage(),
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run's raw figures, as a comment line before the result.
pub fn print_host_line(st: &harness::LoopStats, setup_wall_s: f64) {
    let mut line = format!(
        "# host.ref_ms {:.4}",
        stats::median(&st.ref_ms).unwrap_or(0.0)
    );
    for (name, v) in st.wall_metrics() {
        line.push_str(&format!(" {name} {v:.4}"));
    }
    line.push_str(&format!(
        " host.setup_wall_s {setup_wall_s:.4} in_flight {:.4}",
        st.in_flight
    ));
    println!("{line}");
}

fn render(report: &Report, catalog: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = report
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let args = parse_args(started);
    let result = match args.workload.as_str() {
        "straight" => straight::run(&args),
        "modulo" => modulo::run(&args),
        "serve" => serve::run(&args),
        _ => usage(),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            exit(1);
        }
    };
    if args.trace {
        let catalog: Vec<(&str, &str)> = PER_LAYER.iter().chain(&HOST_RAW).copied().collect();
        println!("{}", render(&report, &catalog));
    } else {
        report.metrics.push(("peak_rss_mb", peak_rss_mb()));
        println!("{}", render(&report, &END_TO_END));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalogs here must match `BENCHMARK.json` name for name.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the crate");
        let doc = eit_core::json::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(eit_core::json::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        let layer: Vec<(&str, &str)> = PER_LAYER.iter().chain(&HOST_RAW).copied().collect();
        assert_eq!(names("per_layer"), own(&layer));
    }

    #[test]
    fn result_line_has_every_catalog_metric() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("p50_ms", 1.25), ("p50_ms", 2.5)],
        };
        let line = render(&r, &END_TO_END);
        let doc = eit_core::json::Json::parse(&line).unwrap();
        let m = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(unit)
            );
        }
        // The last value recorded under a name wins.
        let p50 = m.get("p50_ms").unwrap().get("value").unwrap().as_f64();
        assert_eq!(p50, Some(2.5));
    }
}
