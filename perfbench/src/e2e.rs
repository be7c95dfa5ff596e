//! The untraced run: set-up timed several times, then the workload's
//! engine call repeated for the measuring time, each repetition's
//! digest checked against the others.

use crate::trace::Tracer;
use crate::workload::{self, Instance, Simulated, Workload};
use crate::{median, BenchResult, Reported};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest engine calls, however short the measuring time. The first
/// call warms the allocator and caches and is not timed; its digest is
/// still checked.
pub const MIN_REPS: usize = 4;

/// One timed engine call.
pub struct Rep {
    /// Wall time of the call, s.
    pub wall_s: f64,
    /// The workload's digest, `None` when the call failed.
    pub digest: Option<u64>,
}

/// Outcome of the untraced run.
pub struct E2eOutcome {
    /// The instance the engine ran.
    pub instance: Instance,
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Each timed engine call.
    pub reps: Vec<Rep>,
    /// Simulated device-seconds per engine call.
    pub device_s: f64,
    /// Simulated figures (from the first successful call).
    pub simulated: Option<Simulated>,
    /// The digest most calls agree on.
    pub digest: Option<u64>,
    /// Devices attempted over all calls.
    pub attempted: u64,
    /// Devices that did not retire, or whose call's digest disagreed.
    pub failed: u64,
    /// `VmHWM` of this process after the run, MiB.
    pub peak_rss_mib: f64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
}

impl E2eOutcome {
    /// Median simulated device-seconds per wall-second over the timed
    /// calls that succeeded.
    pub fn device_s_per_wall_s(&self) -> f64 {
        let mut v: Vec<f64> = self
            .reps
            .iter()
            .skip(1)
            .filter(|r| r.digest.is_some())
            .map(|r| self.device_s / r.wall_s)
            .collect();
        median(&mut v)
    }

    /// Median set-up time, s.
    pub fn setup_median_s(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    /// The metrics `BENCHMARK.json` lists as end-to-end, in its order.
    pub fn end_to_end(&self) -> Vec<Reported> {
        let sim = self.simulated.unwrap_or(Simulated::NONE);
        vec![
            Reported {
                name: "device_s_per_wall_s",
                value: self.device_s_per_wall_s(),
                unit: "device-s/s",
            },
            Reported {
                name: "setup_s",
                value: self.setup_median_s(),
                unit: "s",
            },
            Reported {
                name: "peak_rss_mib",
                value: self.peak_rss_mib,
                unit: "MiB",
            },
            Reported {
                name: "sim_cycles_per_window",
                value: sim.cycles_per_window,
                unit: "cycles/window",
            },
            Reported {
                name: "accuracy_permille",
                value: sim.accuracy_permille,
                unit: "permille",
            },
            Reported {
                name: "window_recovery_permille",
                value: sim.window_recovery_permille,
                unit: "permille",
            },
        ]
    }

    /// Whether every check held and no device failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Run `inst` for about `seconds` of timed engine calls.
pub fn run(inst: Instance, seconds: f64) -> BenchResult<E2eOutcome> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut enrolled = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let e = workload::enroll(&inst, &mut Tracer::disabled())?;
        setup_s.push(t.elapsed().as_secs_f64());
        enrolled = Some(e);
    }
    let enrolled = enrolled.ok_or("no set-up ran")?;

    let mut reps = Vec::new();
    let mut first = None;
    let mut checks = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let run = workload::run_engine(&inst, &enrolled);
        let wall_s = t.elapsed().as_secs_f64();
        match run {
            Ok(run) => {
                reps.push(Rep {
                    wall_s,
                    digest: Some(run.digest),
                });
                if first.is_none() {
                    first = Some(run);
                }
            }
            Err(e) => {
                checks.push((format!("engine call failed: {e}"), false));
                reps.push(Rep {
                    wall_s,
                    digest: None,
                });
            }
        }
    }

    let devices = inst.devices as u64;
    let attempted = devices * reps.len() as u64;
    let digest = majority(reps.iter().filter_map(|r| r.digest));
    let failed = devices * reps.iter().filter(|r| r.digest != digest).count() as u64;
    checks.push((
        format!("{} identical on every call", inst.workload.digest_name()),
        reps.iter()
            .all(|r| r.digest.is_some() && r.digest == digest),
    ));
    let mut device_s = 0.0;
    let mut simulated = None;
    if let Some(run) = &first {
        let r = &run.report;
        device_s = r.simulated_device_s;
        simulated = Some(Simulated::of(r));
        checks.push((
            format!("{} of {} devices retired", r.devices, inst.devices),
            r.devices == inst.devices,
        ));
        checks.push((
            format!("sink scored {} windows", r.windows_scored),
            r.windows_scored > 0,
        ));
        checks.push((
            format!("modelled active cycles {}", r.usage.active_cycles),
            r.usage.active_cycles > 0.0,
        ));
        if let Some((high, cap)) = run.slab_window {
            checks.push((
                format!("reorder window high-water {high} within its cap {cap}"),
                high <= cap,
            ));
        }
        if let Some((staged, substitution_tp)) = run.campaign_staging {
            checks.push((
                format!("{staged} of 9 attack classes staged"),
                staged == wiot::attacker::ATTACK_CLASS_COUNT,
            ));
            checks.push((
                format!("substitution class detected {substitution_tp} windows"),
                substitution_tp > 0,
            ));
        }
        if inst.workload != Workload::CampaignMixed {
            checks.push((
                format!(
                    "{} attacked windows in an attack-free fleet",
                    r.confusion.tp + r.confusion.fn_
                ),
                r.confusion.tp + r.confusion.fn_ == 0,
            ));
        }
    }
    Ok(E2eOutcome {
        instance: inst,
        setup_s,
        reps,
        device_s,
        simulated,
        digest,
        attempted,
        failed,
        peak_rss_mib: peak_rss_mib()?,
        checks,
    })
}

/// The most frequent value (the earliest among ties).
fn majority(values: impl Iterator<Item = u64>) -> Option<u64> {
    let values: Vec<u64> = values.collect();
    let mut best: Option<(u64, usize)> = None;
    for &v in &values {
        let n = values.iter().filter(|&&w| w == v).count();
        if best.is_none_or(|(_, m)| n > m) {
            best = Some((v, n));
        }
    }
    best.map(|(v, _)| v)
}
