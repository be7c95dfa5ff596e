//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Everything above that line is the human-readable
//! record: fidelity knobs, digests, checks, and every metric with its
//! unit and, for ratios, its base. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod trace;
pub mod workload;

/// Error type of the benchmark: any error of the crates it drives.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One metric of the final JSON line.
#[derive(Debug, Clone)]
pub struct Reported {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The final line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
