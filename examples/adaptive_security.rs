//! Adaptive security (paper Insight #4): the [`wiot::survival`] policy
//! watches the battery drain and hot-swaps between the three detector
//! versions, instead of the paper's manual re-flashing.
//!
//! The example prints the static per-version lifetimes for reference,
//! then runs the full sample-level scenario with the policy engaged and
//! an accelerated battery, and watches the policy walk the degradation
//! ladder live: reflashing the detector, thinning the sensor duty
//! cycle, and tightening the ARQ retry budget, every decision recorded
//! in the report.
//!
//! Run: `cargo run --release --example adaptive_security`

use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
use sift::config::SiftConfig;
use sift::features::Version;
use wiot::scenario::{run, Scenario};
use wiot::survival::{SurvivalAction, SurvivalConfig};

fn main() {
    let config = SiftConfig::default();
    let profiler = ResourceProfiler::default();

    println!("static deployments for reference:");
    for version in Version::ALL {
        let model_bytes = if version == Version::Reduced { 76 } else { 112 };
        let spec = sift_app_spec(version, &config, model_bytes);
        let p = profiler.profile(&[&spec]);
        println!("  {:<11} {:>5.1} days", version.to_string(), p.lifetime_days);
    }

    closed_loop();
}

/// The survival policy closing the loop inside a live scenario. The
/// battery drain is accelerated 60 000× so a 60 s session traverses the
/// whole discharge curve — on the real device this arc spans weeks.
fn closed_loop() {
    let mut scenario = Scenario::new(0, Version::Original, 60.0).with_reliability();
    scenario.survival = Some(SurvivalConfig {
        min_dwell_ticks: 5,
        drain_scale: 60_000,
        ..SurvivalConfig::default()
    });

    println!("\nclosed-loop survival policy (60 s session, 60 000x drain):");
    let report = run(&scenario).expect("scenario runs");
    let sr = report.survival.expect("survival enabled");
    for action in &sr.actions {
        match *action {
            SurvivalAction::SetVersion { at_tick, from, to } => {
                println!("  t={at_tick:>3}s reflash {from} -> {to}");
            }
            SurvivalAction::SetDuty { at_tick, skip, of } => {
                println!("  t={at_tick:>3}s duty cycle: keep {}/{of} windows", of - skip);
            }
            SurvivalAction::SetRetry {
                at_tick,
                max_retries,
                backoff_extra_shift,
            } => {
                println!(
                    "  t={at_tick:>3}s retry budget: {max_retries} tries, +{backoff_extra_shift} backoff doublings"
                );
            }
        }
    }
    println!(
        "  {} version switches, {} chunks duty-skipped, {} s under low battery",
        sr.version_switches, sr.duty_skipped_chunks, sr.low_battery_ticks
    );
    let names = ["original", "simplified", "reduced"];
    let occupancy: Vec<String> = names
        .iter()
        .zip(sr.occupancy_ticks)
        .map(|(n, t)| format!("{n} {t}s"))
        .collect();
    println!("  occupancy: {}", occupancy.join(", "));
    match sr.cutoff_at_ms {
        Some(ms) => println!(
            "  battery cutoff at t={:.0}s on {} ({} permille left)",
            ms as f64 / 1000.0,
            sr.final_version,
            sr.final_soc_permille
        ),
        None => println!(
            "  session ended on {} with {} permille left",
            sr.final_version, sr.final_soc_permille
        ),
    }
    println!(
        "  detection through it all: {} windows scored, {} dropped",
        report.confusion.total(),
        report.dropped_windows
    );
}
