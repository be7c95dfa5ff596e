//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment cannot reach crates.io, so this vendored
//! crate provides the API subset the workspace's benches use. Each
//! benchmark takes `sample_size` timed samples (20 by default); a
//! sample runs enough iterations to last about a millisecond, sized
//! from one untimed warm-up call. It prints the median time per
//! iteration with the fastest sample and the median absolute deviation
//! (MAD) — robust statistics, so one descheduled sample cannot move the
//! headline. Under `--test` (how cargo invokes benches during
//! `cargo test`) every benchmark body runs exactly once, as upstream
//! criterion does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

pub use std::hint::black_box;

/// Samples per benchmark unless `sample_size` overrides it.
const DEFAULT_SAMPLES: usize = 20;

/// Target duration of one sample; a sample batches iterations of fast
/// routines so the clock reads stay negligible against them.
const TARGET_SAMPLE_NS: u128 = 1_000_000;

/// Cap on the iterations batched into one sample.
const MAX_ITERS_PER_SAMPLE: u128 = 100_000;

fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Robust summary of one benchmark's per-iteration sample times.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    /// Median time per iteration, nanoseconds.
    median_ns: f64,
    /// Fastest sample's time per iteration, nanoseconds.
    min_ns: f64,
    /// Median absolute deviation from the median, nanoseconds.
    mad_ns: f64,
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

impl Summary {
    /// Summarize per-iteration sample times; `None` when there are none.
    fn of(samples_ns: &[f64]) -> Option<Self> {
        if samples_ns.is_empty() {
            return None;
        }
        let mut sorted = samples_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        let med = median(&sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|x| (x - med).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Some(Self {
            median_ns: med,
            min_ns: sorted[0],
            mad_ns: median(&dev),
        })
    }
}

/// Label for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self(format!("{}/{}", name.into(), parameter))
    }

    /// Just the parameter as the label.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How `iter_batched` amortizes setup; ignored by this stand-in.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Drives one benchmark's iterations.
pub struct Bencher {
    /// Timed samples to take; `0` runs the routine once, untimed.
    samples: usize,
    /// Per-iteration time of each sample, nanoseconds.
    sample_ns: Vec<f64>,
    iters_per_sample: u128,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            sample_ns: Vec::with_capacity(samples),
            iters_per_sample: 1,
        }
    }

    /// Time `routine`: one warm-up call sizes the batch, then
    /// `samples` batches are timed.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        if self.samples == 0 {
            return;
        }
        let warm_ns = start.elapsed().as_nanos().max(1);
        let iters = (TARGET_SAMPLE_NS / warm_ns).clamp(1, MAX_ITERS_PER_SAMPLE);
        self.iters_per_sample = iters;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.sample_ns
                .push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Time `routine` on fresh inputs from `setup` (setup untimed); each
    /// sample is one call.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples.max(1) {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            let ns = start.elapsed().as_nanos() as f64;
            if self.samples > 0 {
                self.sample_ns.push(ns);
            }
        }
    }
}

/// The benchmark registry / runner.
#[derive(Debug)]
pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            samples: DEFAULT_SAMPLES,
        }
    }
}

impl Criterion {
    fn run(&self, label: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher::new(if test_mode() { 0 } else { samples.max(1) });
        f(&mut b);
        match Summary::of(&b.sample_ns) {
            None => println!("test {label} ... ok"),
            Some(s) => println!(
                "{label:<48} median {:>11.3} µs  min {:>11.3} µs  MAD {:>9.3} µs  ({} x {})",
                s.median_ns / 1000.0,
                s.min_ns / 1000.0,
                s.mad_ns / 1000.0,
                b.sample_ns.len(),
                b.iters_per_sample,
            ),
        }
    }

    /// Number of timed samples per benchmark (at least one).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n;
        self
    }

    /// Run one named benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        self.run(name, self.samples, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.samples;
        BenchmarkGroup {
            c: self,
            name: name.into(),
            samples,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples for the group's benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Run one named benchmark inside the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        self.c.run(&label, self.samples, f);
        self
    }

    /// Run one parameterized benchmark inside the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        self.c.run(&label, self.samples, |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// Bundle benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        let mut g = c.benchmark_group("grp");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &n| b.iter(|| n * n));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
    }

    #[test]
    fn harness_runs_everything() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
    }

    #[test]
    fn timed_samples_are_summarized() {
        let mut b = Bencher::new(5);
        b.iter(|| black_box(3u64).pow(2));
        assert_eq!(b.sample_ns.len(), 5);
        let mut b = Bencher::new(3);
        b.iter_batched(|| vec![0u8; 8], |v| v.len(), BatchSize::SmallInput);
        assert_eq!(b.sample_ns.len(), 3);
        let mut once = Bencher::new(0);
        let mut calls = 0;
        once.iter(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(once.sample_ns.is_empty());
    }

    #[test]
    fn summary_is_median_min_and_mad() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 100.0]).unwrap();
        assert_eq!(s.median_ns, 4.0);
        assert_eq!(s.min_ns, 1.0);
        // |x − 4| = 1, 3, 0, 2, 96 → median 2: the outlier cannot move it.
        assert_eq!(s.mad_ns, 2.0);
        let even = Summary::of(&[1.0, 3.0]).unwrap();
        assert_eq!(even.median_ns, 2.0);
        assert_eq!(even.mad_ns, 1.0);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("fit", 200).to_string(), "fit/200");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }
}
