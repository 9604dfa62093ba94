//! A minimal, dependency-free micro-benchmark harness.
//!
//! The original benches used criterion, whose registry download breaks
//! the offline tier-1 build. This harness keeps the useful 20%: warmup,
//! automatic iteration-count calibration against a per-sample time
//! budget, and median-of-samples reporting, all on `std::time::Instant`.
//! Results print as one aligned line per benchmark and stay readable
//! through [`Harness::samples`].

use std::hint::black_box;
use std::time::Instant;

/// One measured benchmark.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark id, criterion-style: `group/name`.
    pub name: String,
    /// Iterations per timed sample (calibrated).
    pub iters: u64,
    /// Number of timed samples taken.
    pub samples: u32,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Fastest per-iteration time in nanoseconds.
    pub min_ns: f64,
}

/// Collects [`Sample`]s; one per `bench` call.
pub struct Harness {
    samples: Vec<Sample>,
    /// Per-sample time budget in nanoseconds (iteration count is chosen
    /// to fill it).
    sample_budget_ns: f64,
    /// Timed samples per benchmark.
    sample_count: u32,
}

impl Harness {
    /// A harness with the default budget (10 ms per sample, 15 samples),
    /// or the smoke-test budget (1 ms, 3 samples) if `smoke` is set —
    /// smoke runs measure nothing trustworthy but prove the bench runs.
    pub fn new(smoke: bool) -> Self {
        Self {
            samples: Vec::new(),
            sample_budget_ns: if smoke { 1e6 } else { 1e7 },
            sample_count: if smoke { 3 } else { 15 },
        }
    }

    /// Times `f`, recording the result under `name`. The closure's return
    /// value is passed through [`black_box`] so the work is not optimized
    /// away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warmup + calibration: run until 2 ms of wall time has elapsed
        // (at least once) to estimate the per-iteration cost.
        let mut warm_iters = 0u64;
        let start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if start.elapsed().as_nanos() as f64 >= 2e6 || warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = start.elapsed().as_nanos() as f64 / warm_iters as f64;
        let iters = ((self.sample_budget_ns / per_iter.max(1.0)) as u64).clamp(1, 10_000_000);

        let mut times: Vec<f64> = Vec::with_capacity(self.sample_count as usize);
        for _ in 0..self.sample_count {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            times.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let median = times[times.len() / 2];
        let sample = Sample {
            name: name.to_string(),
            iters,
            samples: self.sample_count,
            median_ns: median,
            min_ns: times[0],
        };
        println!(
            "{:<48} median {:>12}  min {:>12}",
            sample.name,
            fmt_ns(median),
            fmt_ns(times[0])
        );
        self.samples.push(sample);
    }

    /// All samples measured so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// Human-readable duration from nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Shared argv handling for the `benches/` binaries: `--smoke` selects
/// the 1 ms/3-sample configuration.
pub fn harness_from_args() -> Harness {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("FSSGA_BENCH_SMOKE").is_some();
    Harness::new(smoke)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures() {
        let mut h = Harness::new(true);
        let mut x = 0u64;
        h.bench("smoke/add", || {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(h.samples().len(), 1);
        assert_eq!(h.samples()[0].name, "smoke/add");
        assert!(h.samples()[0].median_ns > 0.0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
