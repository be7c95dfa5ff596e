//! Benchmarks of Reference record synthesis and its three kernels, with
//! the Turbo profile and its three kernels alongside for comparison, and
//! the ECG span a campaign attack renders against the whole record it
//! is cut from.
//!
//! Run: `cargo bench -p bench --bench synthesis`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use physio_sim::record::{Record, SynthProfile};
use physio_sim::rr::RrProcess;
use physio_sim::subject::bank;
use physio_sim::{abp, ecg, noise, SAMPLE_RATE_HZ};
use std::hint::black_box;

const DURATION_S: f64 = 30.0;
const SEED: u64 = 9;

fn bench_records(c: &mut Criterion) {
    let s = &bank()[0];
    let mut group = c.benchmark_group("synthesize_30s");
    group.bench_function("reference", |b| {
        b.iter(|| Record::synthesize(black_box(s), DURATION_S, SEED))
    });
    group.bench_function("turbo", |b| {
        b.iter(|| Record::synthesize_profiled(black_box(s), DURATION_S, SEED, SynthProfile::Turbo))
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let s = &bank()[0];
    let fs = SAMPLE_RATE_HZ;
    // The beat train `Record::synthesize` renders for this seed.
    let r_times = RrProcess::new(s.rr, SEED).beat_times(0.4, DURATION_S);
    let (clean_ecg, _) = ecg::render(&s.ecg, &r_times, DURATION_S, fs, ..);
    let mut group = c.benchmark_group("reference_kernel_30s");
    group.bench_function("ecg_render", |b| {
        b.iter(|| ecg::render(black_box(&s.ecg), &r_times, DURATION_S, fs, ..))
    });
    group.bench_function("abp_render", |b| {
        b.iter(|| abp::render(black_box(&s.abp), &r_times, DURATION_S, fs))
    });
    group.bench_function("noise_apply", |b| {
        b.iter_batched(
            || clean_ecg.clone(),
            |mut sig| {
                noise::apply(&mut sig, 0, &s.ecg_noise, fs, SEED ^ 0xEC6);
                sig
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("turbo_kernel_30s");
    group.bench_function("ecg_render", |b| {
        b.iter(|| ecg::render_turbo(black_box(&s.ecg), &r_times, DURATION_S, fs))
    });
    group.bench_function("abp_render", |b| {
        b.iter(|| abp::render_turbo(black_box(&s.abp), &r_times, DURATION_S, fs))
    });
    group.bench_function("noise_apply", |b| {
        b.iter_batched(
            || clean_ecg.clone(),
            |mut sig| {
                noise::apply_turbo(&mut sig, &s.ecg_noise, fs, SEED ^ 0xEC6);
                sig
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// A campaign session: 56 s, attacked from 16 to 40 s.
fn bench_attack_span(c: &mut Criterion) {
    const SESSION_S: f64 = 56.0;
    let s = &bank()[0];
    let fs = SAMPLE_RATE_HZ;
    let span = (16.0 * fs) as usize..(40.0 * fs) as usize;
    let mut group = c.benchmark_group("campaign_56s");
    group.bench_function("reference", |b| {
        b.iter(|| Record::synthesize(black_box(s), SESSION_S, SEED))
    });
    group.bench_function("ecg_span", |b| {
        b.iter(|| Record::synthesize_ecg_span(black_box(s), SESSION_S, SEED, span.clone()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_records, bench_kernels, bench_attack_span
}
criterion_main!(benches);
