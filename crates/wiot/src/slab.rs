//! Streamed fleet runs: bounded-memory multiplexing of arbitrarily many
//! devices over a small worker pool.
//!
//! [`crate::fleet::run_fleet_provisioned`] keeps one [`DeviceSummary`]
//! per device, so a million-device fleet would hold a million summaries
//! (plus their telemetry snapshots) at once. The entry points here run
//! the **same** engine — the crate's one ordered-parallel core, with
//! its claim cursor, `workers × 4` reorder window and in-order fold —
//! but keep no rows: each summary is folded into the aggregates and the
//! streaming digest the moment it is contiguous, then dropped. Resident
//! state is O(workers), not O(devices), and
//! [`SlabReport::pending_high_water`] proves the window bound held.
//!
//! Aggregates are bit-identical to the rows-kept run at any worker
//! count, and [`SlabReport::slab_digest`] equals
//! [`FleetReport::slab_digest`] of the rows-kept report. Error
//! semantics are the same too: the lowest-device-index provisioning or
//! simulation error wins, deterministically.
//!
//! [`DeviceSummary`]: crate::fleet::DeviceSummary

use crate::fleet::{
    digest_device, fold_fleet, BankProvisioner, Digest, FleetProvisioner, FleetReport, FleetSpec,
};
use crate::WiotError;
use sift::trainer::ModelBank;

/// Result of a streamed fleet run: the familiar aggregates (with
/// `per_device` deliberately empty) plus the engine's residency
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabReport {
    /// Fleet aggregates, identical to the rows-kept fold. The
    /// `per_device` vector is **empty** — per-device summaries were
    /// folded and retired, never accumulated.
    pub report: FleetReport,
    /// Streaming digest over every retired summary then the aggregates
    /// (see [`FleetReport::slab_digest`] for the rows-kept
    /// counterpart).
    pub slab_digest: u64,
    /// Worker threads actually used (spec value clamped).
    pub workers: usize,
    /// Maximum summaries the reorder window may hold (`workers × 4`).
    pub window_cap: usize,
    /// Most summaries that were ever pending at once — the measured
    /// residency, always `≤ window_cap`.
    pub pending_high_water: usize,
}

/// Run a fleet with an arbitrary [`FleetProvisioner`], keeping no
/// per-device rows. Aggregates (and [`SlabReport::slab_digest`]) are
/// bit-identical to [`crate::fleet::run_fleet_provisioned`]'s at any
/// worker count.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet and
/// propagates the lowest-device-index provisioning or simulation error,
/// exactly like [`crate::fleet::run_fleet_provisioned`].
pub fn run_fleet_streamed_provisioned(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
) -> Result<SlabReport, WiotError> {
    let mut digest = Digest::new();
    let (report, residency) =
        fold_fleet(spec, prov, |summary| digest_device(&mut digest, &summary))?;
    digest.usize(report.devices);
    report.digest_aggregates_into(&mut digest);
    Ok(SlabReport {
        report,
        slab_digest: digest.0,
        workers: residency.workers,
        window_cap: residency.window_cap,
        pending_high_water: residency.high_water,
    })
}

/// Run a streamed fleet with a pre-trained [`ModelBank`] — the
/// rows-dropped counterpart of [`crate::fleet::run_fleet_with_bank`],
/// sharing its round-robin provisioning policy.
///
/// # Errors
///
/// As [`run_fleet_streamed_provisioned`], plus
/// [`WiotError::InvalidScenario`] when the bank's detector version or
/// backend does not match the template.
pub fn run_fleet_streamed(spec: &FleetSpec, models: &ModelBank) -> Result<SlabReport, WiotError> {
    run_fleet_streamed_provisioned(spec, &BankProvisioner::new(spec, models)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet_with_bank, DeviceProvision};
    use physio_sim::subject::bank;

    fn trained_bank(spec: &FleetSpec) -> ModelBank {
        ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap()
    }

    #[test]
    fn rows_dropped_run_matches_rows_kept_run() {
        let spec = FleetSpec::new(3, 9.0).with_seed(7);
        let models = trained_bank(&spec);
        for threads in [1, 2, 8] {
            let spec = spec.clone().with_threads(threads);
            let kept = run_fleet_with_bank(&spec, &models).unwrap();
            let streamed = run_fleet_streamed(&spec, &models).unwrap();
            assert_eq!(kept.per_device.len(), 3);
            assert!(streamed.report.per_device.is_empty());
            // Aggregates are bit-identical once the kept rows are set
            // aside.
            let mut kept_cmp = kept.clone();
            kept_cmp.per_device = Vec::new();
            assert_eq!(streamed.report, kept_cmp, "threads {threads}");
            // And the streaming digest equals the rows-kept
            // recomputation.
            assert_eq!(
                streamed.slab_digest,
                kept.slab_digest(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn streamed_digest_is_worker_count_stable() {
        let spec = FleetSpec::new(4, 9.0).with_seed(13);
        let models = trained_bank(&spec);
        let one = run_fleet_streamed(&spec, &models).unwrap();
        let two = run_fleet_streamed(&spec.clone().with_threads(2), &models).unwrap();
        let four = run_fleet_streamed(&spec.clone().with_threads(4), &models).unwrap();
        assert_eq!(one.slab_digest, two.slab_digest);
        assert_eq!(two.slab_digest, four.slab_digest);
        assert_eq!(one.report, two.report);
        assert_eq!(two.report, four.report);
        assert_eq!(two.workers, 2);
        assert_eq!(four.workers, 4);
    }

    #[test]
    fn reorder_window_bounds_resident_summaries() {
        // Far more devices than the window can hold: the high-water
        // mark must stay inside the O(workers) bound.
        let spec = FleetSpec::new(24, 9.0).with_seed(3).with_threads(2);
        let models = trained_bank(&spec);
        let r = run_fleet_streamed(&spec, &models).unwrap();
        assert_eq!(r.window_cap, 2 * 4);
        assert!(
            r.pending_high_water <= r.window_cap,
            "pending {} exceeded cap {}",
            r.pending_high_water,
            r.window_cap
        );
        assert!(r.pending_high_water >= 1);
        assert_eq!(r.report.devices, 24);
    }

    #[test]
    fn mismatched_bank_is_rejected() {
        let spec = FleetSpec::new(1, 9.0);
        let models = ModelBank::train(
            &bank(),
            sift::features::Version::Reduced,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_streamed(&spec, &models),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn lowest_index_error_wins_and_terminates() {
        // A provisioner that fails a specific device: the engine must
        // return that error (not hang, not return a partial report),
        // and the failing index must win over later successes.
        struct FailAt {
            inner: BankProvisioner<'static>,
            fail_device: usize,
        }
        impl FleetProvisioner for FailAt {
            fn provision(
                &self,
                spec: &FleetSpec,
                device: usize,
            ) -> Result<DeviceProvision<'_>, WiotError> {
                if device == self.fail_device {
                    return Err(WiotError::InvalidScenario {
                        reason: "injected provisioning failure",
                    });
                }
                self.inner.provision(spec, device)
            }
        }
        let spec = FleetSpec::new(6, 9.0).with_seed(5).with_threads(2);
        let models = Box::leak(Box::new(trained_bank(&spec)));
        let prov = FailAt {
            inner: BankProvisioner::new(&spec, models).unwrap(),
            fail_device: 4,
        };
        let err = run_fleet_streamed_provisioned(&spec, &prov).unwrap_err();
        assert_eq!(
            err,
            WiotError::InvalidScenario {
                reason: "injected provisioning failure",
            }
        );
    }
}
