//! `fssga-perfbench` — the repository benchmark.
//!
//! ```text
//! fssga-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks every output against an oracle, and prints as its
//! last stdout line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones
//! ([`END_TO_END`]); with `--trace 1` the run is repeated with spans and
//! a round tracer around the public calls, and the metrics are the
//! per-layer ones ([`PER_LAYER`]). The exit code is non-zero when any
//! oracle fails. See `README.md` beside this crate for what each
//! workload is for.

mod churn;
mod election;
mod fixpoint;
mod meta;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fssga_engine::{Network, Protocol};
use fssga_serve::json::{self, Json};

use crate::stats::{median, quartiles, sliced_tail};
use crate::trace::Spans;

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`. What a "run" and an "item" are depends on the
/// workload (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`:
/// `(name, unit)`. A workload that never enters a layer reports that
/// layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("network.new_s", "s"),
    ("kernel.build_s", "s"),
    ("kernel.round_p50_us", "us"),
    ("kernel.round_tail_us", "us"),
    ("kernel.ns_per_activation", "ns"),
    ("kernel.activations", "count"),
    ("kernel.rounds", "count"),
    ("kernel.useful_ratio", "ratio"),
    ("kernel.skip_ratio", "ratio"),
    ("kernel.neighbor_reads", "count"),
    ("kernel.gather_bytes_computed", "bytes"),
    ("kernel.arena_len_final", "count"),
    ("kernel.dead_space_final", "count"),
    ("churn.apply_ns_per_event", "ns"),
    ("churn.step_us_per_round", "us"),
    ("churn.activations_per_event", "count"),
    ("churn.skipped_events", "count"),
    ("churn.recovery_p50_rounds", "rounds"),
    ("churn.recovery_p99_rounds", "rounds"),
    ("interp.ns_per_activation", "ns"),
    ("interp.round_p50_us", "us"),
    ("election.rounds_per_election", "rounds"),
    ("election.harness_share", "ratio"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.admit_ms_tail", "ms"),
    ("serve.start_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.frames_per_job", "count"),
    ("serve.bytes_per_job", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "torus-census",
    "torus-sssp",
    "churn-stream",
    "election-gnp",
    "serve-mix",
];

/// One invocation's parameters.
pub struct Run {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
}

impl Run {
    /// The untraced measurement window: the whole run, or its first half
    /// when the traced repeat follows.
    pub fn window(&self, traced: bool) -> f64 {
        if traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Runs `op` until `window` seconds have passed (at least once) and
/// returns how many times it ran. The time `op` spends outside its own
/// timed part counts against the window, so runs end on time.
pub fn repeat(window: f64, mut op: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed().as_secs_f64() < window {
        op(i);
        i += 1;
    }
    i
}

/// What a workload hands back to [`main`].
#[derive(Default)]
pub struct Report {
    /// Operations attempted (fixpoint runs, churn passes, elections,
    /// job submissions).
    pub attempted: u64,
    /// Attempts that failed: oracle mismatch, error, shed, timeout.
    pub failed: u64,
    /// Oracle failures; any one makes the run incorrect.
    pub errors: Vec<String>,
    /// Set-up wall times, s (untraced runs).
    pub setup_s: Vec<f64>,
    /// Per-run latencies, ms (untraced runs); a failed attempt enters
    /// as `f64::INFINITY`, missing every latency limit.
    pub latency_ms: Vec<f64>,
    /// Work items completed (untraced runs), for throughput.
    pub items: f64,
    /// Seconds the items took.
    pub busy_s: f64,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
    /// Workload facts for the run record: sizes, deterministic counts,
    /// fingerprints, sample counts.
    pub meta: Vec<(&'static str, Json)>,
}

impl Report {
    /// Records an oracle failure for one attempt.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Records the workload's computed working set and its ratio to L2.
    pub fn working_set(&mut self, bytes: u64) {
        self.meta.push(("working_set_bytes", json::nu(bytes)));
        if let Some(l2) = meta::cache_bytes(2) {
            self.meta
                .push(("working_set_over_l2", json::n(bytes as f64 / l2 as f64)));
        }
    }

    /// Records a deterministic value that must not change between
    /// attempts of one run: the first attempt sets it, a later
    /// different value is an oracle failure.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, slot: &mut Option<T>, what: &str, v: T) {
        match slot {
            None => *slot = Some(v),
            Some(first) if *first == v => {}
            Some(first) => {
                let msg = format!("{what} changed between attempts: {first:?} then {v:?}");
                self.fail(msg);
            }
        }
    }
}

/// Computed bytes a kernel round reads: CSR offsets and arena (4 B per
/// entry) plus the packed state mirror.
pub fn kernel_bytes<P: Protocol>(net: &Network<P>) -> u64 {
    let k = net.kernel().expect("kernel built");
    let n = net.n() as u64;
    4 * (n + 1) + 4 * k.arena_len() as u64 + n * u64::from(k.packed_width_bits()) / 8
}

/// Computed bytes of an interpreter network: an adjacency of `m` edges
/// stored both ways (4 B per entry) plus the current and next states.
pub fn interp_bytes<P: Protocol>(n: usize, m: usize) -> u64 {
    (4 * (n + 1) + 8 * m + 2 * n * std::mem::size_of::<P::State>()) as u64
}

/// Seconds → the value at the median, or 0 for no samples.
pub fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Mean traced time over mean untraced time, minus 1.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    mean(traced) / mean(untraced) - 1.0
}

/// Directory the run records and span files go to.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((workload, seed, seconds, trace))
}

fn metric(value: f64, unit: &str) -> Json {
    json::obj(vec![("value", json::n(value)), ("unit", json::s(unit))])
}

fn main() -> ExitCode {
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fssga-perfbench: {e}");
            eprintln!("usage: fssga-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let run = Run { seed, seconds };
    let t0 = Instant::now();
    let mut r = match workload.as_str() {
        "torus-census" => fixpoint::census(&run, traced),
        "torus-sssp" => fixpoint::sssp(&run, traced),
        "churn-stream" => churn::run(&run, traced),
        "election-gnp" => election::run(&run, traced),
        "serve-mix" => serve_mix::run(&run, traced),
        _ => unreachable!("checked by parse_args"),
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let mut metrics = Vec::new();
    let mut sample_meta = Vec::new();
    if traced {
        for &(name, unit) in PER_LAYER {
            let v = r.layers.get(name).copied().unwrap_or(0.0);
            metrics.push((name, metric(v, unit)));
        }
    } else {
        // A failed attempt enters the latency samples as +inf; a tail
        // that lands on one is reported as the whole window, the least
        // it could have been.
        let window_ms = wall_s * 1e3;
        let lat = |x: f64| if x.is_finite() { x } else { window_ms };
        let t = sliced_tail(&r.latency_ms);
        let e2e = [
            med(&r.setup_s),
            lat(med(&r.latency_ms)),
            lat(t.map_or(0.0, |t| t.0)),
            r.items / r.busy_s.max(f64::MIN_POSITIVE),
            meta::peak_rss_mb().unwrap_or(0.0),
            1.0 - r.failed as f64 / r.attempted.max(1) as f64,
        ];
        for (&(name, unit), v) in END_TO_END.iter().zip(e2e) {
            metrics.push((name, metric(v, unit)));
        }
        let quart = quartiles(&r.latency_ms).unwrap_or_default();
        sample_meta = vec![
            (
                "latency_quartiles_ms",
                Json::Arr(quart.iter().map(|&q| json::n(lat(q))).collect()),
            ),
            ("setup_samples", json::nu(r.setup_s.len() as u64)),
            ("latency_samples", json::nu(r.latency_ms.len() as u64)),
            (
                "latency_tail_slice_samples",
                json::nu(t.map_or(0, |t| t.1.samples) as u64),
            ),
            (
                "latency_tail_percentile",
                json::n(t.map_or(0.0, |t| t.1.percentile)),
            ),
            (
                "latency_tail_beyond",
                json::nu(t.map_or(0, |t| t.1.beyond) as u64),
            ),
            (
                "setup_s_samples",
                Json::Arr(r.setup_s.iter().map(|&x| json::n(x)).collect()),
            ),
            (
                "latency_ms_samples",
                Json::Arr(r.latency_ms.iter().map(|&x| json::n(lat(x))).collect()),
            ),
        ];
    }
    let correct = r.errors.is_empty() && r.attempted > 0;

    let mut record = vec![
        ("workload", json::s(&workload)),
        ("seed", json::nu(seed)),
        ("seconds", json::n(seconds)),
        ("traced", Json::Bool(traced)),
        ("wall_s", json::n(wall_s)),
        ("attempted", json::nu(r.attempted)),
        ("failed", json::nu(r.failed)),
        (
            "fail_ratio",
            json::n(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        (
            "errors",
            Json::Arr(r.errors.iter().map(|e| json::s(e.as_str())).collect()),
        ),
    ];
    record.extend(meta::host());
    record.extend(sample_meta);
    record.append(&mut r.meta);
    let _ = std::fs::create_dir_all(out_dir());
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(traced));
    if let Some(spans) = &r.spans {
        let path = out_dir().join(format!("{stem}.spans.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => record.push(("spans_file", json::s(path.display().to_string()))),
            Err(e) => eprintln!("fssga-perfbench: writing {}: {e}", path.display()),
        }
        let summary = spans
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    json::obj(vec![
                        ("count", json::nu(count)),
                        ("total_ns", json::nu(total)),
                        ("self_ns", json::nu(own)),
                    ]),
                )
            })
            .collect();
        record.push(("span_summary", json::obj(summary)));
    }
    let metrics = json::obj(metrics);
    record.push(("metrics", metrics.clone()));
    let record = json::obj(record).to_string();
    let path = out_dir().join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("fssga-perfbench: writing {}: {e}", path.display());
    }
    for e in &r.errors {
        eprintln!("fssga-perfbench: oracle failure: {e}");
    }
    println!("{record}");
    println!(
        "{}",
        json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", json::nu(r.attempted)),
            ("failed", json::nu(r.failed)),
            ("metrics", metrics),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let declared = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(END_TO_END));
        assert_eq!(names("per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
