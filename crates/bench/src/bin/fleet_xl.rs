//! Extra-large fleet bench: drive ≥100 000 devices through the streamed
//! fleet entry point ([`wiot::slab`]) and prove the bounded-memory and
//! determinism claims at scale.
//!
//! Run: `cargo run --release -p bench --bin fleet_xl -- --devices 100000
//! --threads 8 --seed 61455 --duration 30`
//!
//! The bin runs the full fleet once per thread count in `1, 2, threads`
//! and **exits nonzero** unless every pass produces the same slab
//! digest, the reorder window's high-water mark stays within its
//! `workers × 4` cap, and the per-pass aggregate reports are identical.
//! The spec trades fidelity knobs the resident 100-device bench keeps —
//! [`SynthProfile::Turbo`] waveforms, the `Reduced` detector flavor,
//! FRAM persistence off — for the throughput a million-device campaign
//! needs; its digest is pinned by its **own** baseline
//! (`results/BENCH_fleet_xl.json`), not the resident one.
//!
//! The Turbo-vs-Reference ratio is like for like: after the Turbo
//! passes, the bin times a fixed slice of the same spec with
//! [`SynthProfile::Reference`] in the same process, and reports the two
//! throughputs and their ratio separately.
//!
//! Writes `results/BENCH_fleet_xl.json` (override with `--out PATH`).
//! The digest and count fields are deterministic; wall-clock fields
//! (`*_wall_s`, throughput, `pending_high_water`) vary per machine and
//! run, which is why `scripts/verify.sh` hard-gates only the digest and
//! warns on throughput drift.

use ml::BackendKind;
use physio_sim::record::SynthProfile;
use physio_sim::subject::bank;
use sift::features::Version;
use sift::trainer::ModelBank;
use std::time::Instant;
use wiot::fleet::FleetSpec;
use wiot::slab::{run_fleet_streamed, SlabReport};

/// Devices in the Reference-synthesis slice (fewer if the fleet is
/// smaller): enough for a stable throughput, a fraction of the run.
const REFERENCE_SLICE_DEVICES: usize = 5_000;

struct Args {
    devices: usize,
    threads: usize,
    seed: u64,
    duration_s: f64,
    backend: BackendKind,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: fleet_xl [--devices N] [--threads N] [--seed N] [--duration SECONDS] \
         [--backend svm|tsetlin] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        devices: 100_000,
        threads: 8,
        seed: 61455,
        duration_s: 30.0,
        backend: BackendKind::Svm,
        out: "results/BENCH_fleet_xl.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--devices" => args.devices = value.parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--duration" => args.duration_s = value.parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                args.backend = match value.as_str() {
                    "svm" => BackendKind::Svm,
                    "tsetlin" => BackendKind::Tsetlin,
                    _ => usage(),
                }
            }
            "--out" => args.out = value,
            _ => usage(),
        }
    }
    args
}

/// The throughput-first fleet spec: `Reduced` flavor, turbo synthesis,
/// no FRAM persistence.
fn xl_spec(args: &Args, threads: usize) -> FleetSpec {
    let mut spec = FleetSpec::new(args.devices, args.duration_s)
        .with_threads(threads)
        .with_seed(args.seed);
    spec.template.version = Version::Reduced;
    spec.template.synth = SynthProfile::Turbo;
    spec.template.persist = false;
    spec.template.backend = args.backend;
    spec
}

/// Time one streamed run of `spec`.
fn timed_run(spec: &FleetSpec, models: &ModelBank) -> (SlabReport, f64) {
    let t = Instant::now();
    let report = match run_fleet_streamed(spec, models) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet_xl run failed at {} threads: {e}", spec.threads);
            std::process::exit(1);
        }
    };
    (report, t.elapsed().as_secs_f64())
}

fn run_pass(args: &Args, models: &ModelBank, threads: usize) -> (SlabReport, f64) {
    let (report, wall) = timed_run(&xl_spec(args, threads), models);
    println!(
        "  {} threads: {:.1} s wall -> {:.1} device-s/wall-s, digest {:#018x}, \
         pending high-water {}/{}",
        threads,
        wall,
        report.report.simulated_device_s / wall,
        report.slab_digest,
        report.pending_high_water,
        report.window_cap
    );
    if report.pending_high_water > report.window_cap {
        eprintln!(
            "fleet_xl: FAIL reorder window exceeded its cap: {} > {}",
            report.pending_high_water, report.window_cap
        );
        std::process::exit(1);
    }
    (report, wall)
}

fn main() {
    let args = parse_args();
    let backend_name = match args.backend {
        BackendKind::Svm => "svm",
        BackendKind::Tsetlin => "tsetlin",
    };
    println!(
        "fleet_xl bench: {} devices x {:.0} s ({} backend, reduced flavor, turbo synthesis, seed {})",
        args.devices, args.duration_s, backend_name, args.seed
    );

    let spec = xl_spec(&args, args.threads);
    let t0 = Instant::now();
    let models = match ModelBank::train_backend(
        &bank(),
        spec.template.version,
        spec.template.backend,
        &spec.template.config,
        spec.seed,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("enrollment failed: {e}");
            std::process::exit(1);
        }
    };
    let train_wall_s = t0.elapsed().as_secs_f64();
    println!(
        "enrolled {} subjects in {:.1} s (shared across all devices)",
        models.len(),
        train_wall_s
    );

    // Every pass replays the identical fleet; the slab digest (folded
    // per-device, in retirement order) must not depend on the worker
    // count. The last pass (the caller's thread count) is the headline.
    let mut thread_counts = vec![1usize, 2];
    if !thread_counts.contains(&args.threads) {
        thread_counts.push(args.threads);
    }
    let mut passes: Vec<(usize, SlabReport, f64)> = Vec::new();
    for &threads in &thread_counts {
        let (report, wall) = run_pass(&args, &models, threads);
        passes.push((threads, report, wall));
    }
    let (digest0, report0) = {
        let (_, r, _) = &passes[0];
        (r.slab_digest, r.report.clone())
    };
    for (threads, r, _) in &passes {
        if r.slab_digest != digest0 {
            eprintln!(
                "fleet_xl: FAIL slab digest moved with the worker count: \
                 {:#018x} at {} threads vs {:#018x} at {} threads",
                r.slab_digest, threads, digest0, passes[0].0
            );
            std::process::exit(1);
        }
        if r.report != report0 {
            eprintln!("fleet_xl: FAIL aggregate report moved with the worker count");
            std::process::exit(1);
        }
    }
    println!(
        "slab digest {:#018x} identical across {:?} worker threads",
        digest0,
        passes.iter().map(|(t, _, _)| *t).collect::<Vec<_>>()
    );

    let (headline_threads, headline, sim_wall_s) = {
        let (t, r, w) = passes.last().expect("at least one pass ran");
        (*t, r.clone(), *w)
    };
    let rep = &headline.report;
    let throughput = rep.simulated_device_s / sim_wall_s;
    println!(
        "simulated {:.0} device-seconds in {:.1} s wall -> {:.1} device-s/wall-s",
        rep.simulated_device_s, sim_wall_s, throughput
    );

    // Like-for-like baseline: the same spec and thread count with only
    // the synthesis profile switched back to Reference.
    let mut slice_spec = xl_spec(&args, headline_threads);
    slice_spec.devices = args.devices.min(REFERENCE_SLICE_DEVICES);
    slice_spec.template.synth = SynthProfile::Reference;
    let (slice, slice_wall_s) = timed_run(&slice_spec, &models);
    let reference_throughput = slice.report.simulated_device_s / slice_wall_s;
    let turbo_vs_reference = throughput / reference_throughput;
    println!(
        "reference slice: {} devices, same spec with reference synthesis: {:.1} s wall \
         -> {:.1} device-s/wall-s, digest {:#018x}",
        slice_spec.devices, slice_wall_s, reference_throughput, slice.slab_digest
    );
    println!(
        "turbo {:.1} vs reference {:.1} device-s/wall-s: {:.2}x from the synthesis profile",
        throughput, reference_throughput, turbo_vs_reference
    );
    println!(
        "windows scored {} (sink flagged {}), recovery {:.3}, outliers {}",
        rep.windows_scored,
        rep.sink_flagged,
        rep.mean_window_recovery,
        rep.outliers.len(),
    );

    let json = format!(
        "{{\n  \"devices\": {},\n  \"threads\": {},\n  \"digest_threads\": {:?},\n  \
         \"seed\": {},\n  \"duration_s\": {},\n  \"backend\": \"{}\",\n  \
         \"version\": \"reduced\",\n  \"synth\": \"turbo\",\n  \"persist\": false,\n  \
         \"simulated_device_s\": {},\n  \"train_wall_s\": {:.3},\n  \
         \"sim_wall_s\": {:.3},\n  \"throughput_device_s_per_wall_s\": {:.1},\n  \
         \"reference_slice_devices\": {},\n  \"reference_slice_wall_s\": {:.3},\n  \
         \"reference_throughput_device_s_per_wall_s\": {:.1},\n  \
         \"turbo_vs_reference_speedup\": {:.2},\n  \
         \"reference_slice_digest\": \"{:#018x}\",\n  \"slab_digest\": \"{:#018x}\",\n  \
         \"window_cap\": {},\n  \"pending_high_water\": {},\n  \
         \"windows_scored\": {},\n  \
         \"sink_flagged\": {},\n  \"dropped_windows\": {},\n  \"salvaged_windows\": {},\n  \
         \"mean_window_recovery\": {:.6},\n  \"detections\": {},\n  \"stall_alerts\": {},\n  \
         \"outliers\": {},\n  \"mean_battery_left\": {:.6}\n}}\n",
        rep.devices,
        headline_threads,
        thread_counts,
        rep.seed,
        args.duration_s,
        backend_name,
        rep.simulated_device_s,
        train_wall_s,
        sim_wall_s,
        throughput,
        slice_spec.devices,
        slice_wall_s,
        reference_throughput,
        turbo_vs_reference,
        slice.slab_digest,
        headline.slab_digest,
        headline.window_cap,
        headline.pending_high_water,
        rep.windows_scored,
        rep.sink_flagged,
        rep.dropped_windows,
        rep.salvaged_windows,
        rep.mean_window_recovery,
        rep.detections,
        rep.stall_alerts,
        rep.outliers.len(),
        rep.usage.mean_battery_left(),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);
}
