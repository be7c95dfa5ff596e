//! The Amulet Resource Profiler (ARP) analogue.
//!
//! ARP "captures information about each app's code space and memory
//! requirements, using a combination of compiler tools and static
//! analysis" and "builds a parameterized model of the app's energy
//! consumption"; ARP-view renders that profile with "sliders that allow
//! \[developers\] to see the battery-life impact when they adjust
//! application parameters" (paper §IV-B, Fig. 3). This module provides
//! all three: static resource specs, derived profiles, and the textual
//! ARP-view report with parameter sweeps.

use crate::costs::{detector_cycles, OpCosts};
use crate::energy::EnergyModel;
use crate::CPU_HZ;
use sift::config::SiftConfig;
use sift::features::Version;

/// Libraries an app can pull into the system image. Their footprints are
/// charged to the *system* FRAM row, which is why Table III's system
/// memory differs across detector versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemLib {
    /// Single-precision software floating point runtime.
    SoftFloat,
    /// Double-precision C math library (`sqrt`, `atan2`, …).
    CMathDouble,
}

impl SystemLib {
    /// FRAM footprint of the library, in bytes.
    pub fn fram_bytes(self) -> usize {
        match self {
            // Calibrated to the deltas in the paper's Table III:
            // system(simplified) − system(reduced) = 15.29 KB,
            // system(original) − system(simplified) = 5.45 KB.
            SystemLib::SoftFloat => 15_657,
            SystemLib::CMathDouble => 5_581,
        }
    }
}

/// Static, compile-time resource declaration of one app (what ARP
/// extracts with its compiler tooling).
#[derive(Debug, Clone, PartialEq)]
pub struct AppResourceSpec {
    /// App name.
    pub name: String,
    /// App code in FRAM, bytes.
    pub fram_code_bytes: usize,
    /// App constants + buffers in FRAM, bytes.
    pub fram_data_bytes: usize,
    /// Peak SRAM (stack + locals), bytes.
    pub sram_peak_bytes: usize,
    /// Active CPU cycles per wake period.
    pub cycles_per_period: f64,
    /// Wake period in seconds.
    pub period_s: f64,
    /// System libraries this app links.
    pub libs: Vec<SystemLib>,
}

impl AppResourceSpec {
    /// Total app FRAM (code + data), bytes.
    pub fn fram_total_bytes(&self) -> usize {
        self.fram_code_bytes + self.fram_data_bytes
    }
}

/// Resource spec of the SIFT detector app for a given version — the
/// static-analysis result ARP would produce from the generated C.
///
/// Footprints are composed from the pieces the app actually owns:
/// QM state-machine scaffolding and handlers (code), the translated model
/// constants, and the window buffers (int16 for both channels; the
/// reduced version streams and keeps only peak coordinates).
pub fn sift_app_spec(version: Version, config: &SiftConfig, model_bytes: usize) -> AppResourceSpec {
    let window = config.window_samples();
    // Raw ADC samples are 12-bit; the generated C stores them packed
    // (1.5 bytes per sample). One packed channel of w·fs samples:
    let packed_channel = window * 3 / 2;
    // Peak-index arrays: two u16[40] tables per window pair.
    let peak_arrays = 160;
    // Handler + state-machine code, from counting generated-C functions.
    // The original's angle/distance handlers and math-library shims make
    // it the largest; the reduced version inlines its streaming min/max
    // and Q16.16 helpers, so it carries more code than the simplified
    // one despite the smaller pipeline.
    let (code, libs): (usize, Vec<SystemLib>) = match version {
        Version::Original => (
            1_393,
            vec![SystemLib::SoftFloat, SystemLib::CMathDouble],
        ),
        Version::Simplified => (604, vec![SystemLib::SoftFloat]),
        Version::Reduced => (765, vec![]),
    };
    // Buffers: both packed channels, except the reduced version which
    // streams the ABP reference and buffers only the ECG channel.
    let buffers = match version {
        Version::Original | Version::Simplified => 2 * packed_channel + peak_arrays,
        Version::Reduced => packed_channel + peak_arrays,
    };
    let data = buffers + model_bytes;
    let sram = match version {
        // Float locals: normalization state, grid accumulators, feature
        // vector, soft-float workspace.
        Version::Original | Version::Simplified => 259,
        // Fixed-point locals only.
        Version::Reduced => 69,
    };
    let cycles = detector_cycles(version, config, &OpCosts::default(), 4.0).total();
    AppResourceSpec {
        name: format!("sift-{version}"),
        fram_code_bytes: code,
        fram_data_bytes: data,
        sram_peak_bytes: sram,
        cycles_per_period: cycles,
        period_s: config.window_s,
        libs,
    }
}

/// Baseline AmuletOS image (kernel, drivers, QM runtime, display stack)
/// before any app libraries: calibrated to Table III's reduced-version
/// system row (56.29 KB FRAM, 694 B SRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemBaseline {
    /// OS FRAM footprint, bytes.
    pub fram_bytes: usize,
    /// OS SRAM peak, bytes.
    pub sram_bytes: usize,
}

impl Default for SystemBaseline {
    fn default() -> Self {
        Self {
            fram_bytes: 57_641, // 56.29 KB
            sram_bytes: 694,
        }
    }
}

/// A complete derived profile for a firmware image: system + apps.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceProfile {
    /// System FRAM including app-pulled libraries, bytes.
    pub system_fram_bytes: usize,
    /// Sum of app FRAM (code + data), bytes.
    pub app_fram_bytes: usize,
    /// System SRAM peak, bytes.
    pub system_sram_bytes: usize,
    /// Max app SRAM peak (run-to-completion: apps never run
    /// concurrently), bytes.
    pub app_sram_bytes: usize,
    /// Average current including app duty cycles, µA.
    pub avg_current_ua: f64,
    /// Projected battery lifetime, days.
    pub lifetime_days: f64,
}

/// A point-in-time usage snapshot of one (or, after merging, many)
/// simulated devices: the dynamic counterpart of the static
/// [`ResourceProfile`]. Snapshots are designed to be **mergeable** so a
/// fleet of devices sharded across worker threads can be folded into
/// one aggregate — merge is commutative and associative over the
/// counters, and the battery fields keep the fleet-wide extremes and
/// totals rather than an order-dependent average.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageSnapshot {
    /// Devices folded into this snapshot.
    pub devices: u64,
    /// Total active CPU cycles across devices.
    pub active_cycles: f64,
    /// Total charge consumed across devices, mAh.
    pub consumed_mah: f64,
    /// Worst (lowest) battery fraction left across devices.
    pub min_battery_left: f64,
    /// Sum of battery fractions left (divide by `devices` for the mean).
    pub battery_left_sum: f64,
    /// Total events dispatched across devices.
    pub dispatched: u64,
}

impl UsageSnapshot {
    /// Snapshot of a single device from its raw meters.
    pub fn single(
        active_cycles: f64,
        consumed_mah: f64,
        battery_left: f64,
        dispatched: u64,
    ) -> Self {
        Self {
            devices: 1,
            active_cycles,
            consumed_mah,
            min_battery_left: battery_left,
            battery_left_sum: battery_left,
            dispatched,
        }
    }

    /// Fold `other` into `self`. An empty (default) snapshot is the
    /// identity, so shard-local accumulators start from `default()`.
    pub fn merge(&mut self, other: &UsageSnapshot) {
        if other.devices == 0 {
            return;
        }
        self.min_battery_left = if self.devices == 0 {
            other.min_battery_left
        } else {
            self.min_battery_left.min(other.min_battery_left)
        };
        self.devices += other.devices;
        self.active_cycles += other.active_cycles;
        self.consumed_mah += other.consumed_mah;
        self.battery_left_sum += other.battery_left_sum;
        self.dispatched += other.dispatched;
    }

    /// Mean battery fraction left across devices (1.0 for an empty
    /// snapshot).
    pub fn mean_battery_left(&self) -> f64 {
        if self.devices == 0 {
            1.0
        } else {
            self.battery_left_sum / self.devices as f64
        }
    }
}

/// The profiler itself.
///
/// # Examples
///
/// ```
/// use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
/// use sift::{config::SiftConfig, features::Version};
///
/// let profiler = ResourceProfiler::default();
/// let spec = sift_app_spec(Version::Reduced, &SiftConfig::default(), 80);
/// let profile = profiler.profile(&[&spec]);
/// assert!(profile.lifetime_days > 50.0); // the paper's 55-day row
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResourceProfiler {
    baseline: SystemBaseline,
    energy: EnergyModel,
}

impl ResourceProfiler {
    /// Profiler with explicit baseline and energy model.
    pub fn new(baseline: SystemBaseline, energy: EnergyModel) -> Self {
        Self { baseline, energy }
    }

    /// Profile a firmware image containing `apps`.
    pub fn profile(&self, apps: &[&AppResourceSpec]) -> ResourceProfile {
        // System image: baseline + union of linked libraries.
        let mut libs: Vec<SystemLib> = apps.iter().flat_map(|a| a.libs.iter().copied()).collect();
        libs.sort_by_key(|l| l.fram_bytes());
        libs.dedup();
        let system_fram =
            self.baseline.fram_bytes + libs.iter().map(|l| l.fram_bytes()).sum::<usize>();
        let app_fram: usize = apps.iter().map(|a| a.fram_total_bytes()).sum();
        let app_sram = apps.iter().map(|a| a.sram_peak_bytes).max().unwrap_or(0);
        // Energy: baseline + Σ app duty cycles at active current.
        let total_active: f64 = apps
            .iter()
            .map(|a| a.cycles_per_period / CPU_HZ / a.period_s)
            .sum();
        let avg_current_ua = self.energy.currents.baseline_ua()
            + total_active.min(1.0) * self.energy.currents.mcu_active_ma * 1000.0;
        let lifetime_days = self.energy.lifetime_days(avg_current_ua);
        ResourceProfile {
            system_fram_bytes: system_fram,
            app_fram_bytes: app_fram,
            system_sram_bytes: self.baseline.sram_bytes,
            app_sram_bytes: app_sram,
            avg_current_ua,
            lifetime_days,
        }
    }

    /// ARP-view "slider": sweep the detector wake period and return
    /// `(period_s, lifetime_days)` pairs — the battery-life impact of a
    /// parameter change, as in Fig. 3.
    pub fn lifetime_vs_period(
        &self,
        spec: &AppResourceSpec,
        periods_s: &[f64],
    ) -> Vec<(f64, f64)> {
        periods_s
            .iter()
            .map(|&p| {
                let mut s = spec.clone();
                s.period_s = p;
                (p, self.profile(&[&s]).lifetime_days)
            })
            .collect()
    }

    /// Render the ARP-view textual report for an image (the Fig. 3
    /// snapshot).
    pub fn arp_view(&self, apps: &[&AppResourceSpec]) -> String {
        use std::fmt::Write;
        let p = self.profile(apps);
        let mut out = String::new();
        let _ = writeln!(out, "=== ARP-view: resource profile ===");
        let _ = writeln!(
            out,
            "system : FRAM {:>8.2} KB | SRAM {:>5} B",
            p.system_fram_bytes as f64 / 1024.0,
            p.system_sram_bytes
        );
        for a in apps {
            let _ = writeln!(
                out,
                "{:<22}: FRAM {:>8.2} KB | SRAM {:>5} B | {:>7.1} ms / {:>4.1} s",
                a.name,
                a.fram_total_bytes() as f64 / 1024.0,
                a.sram_peak_bytes,
                a.cycles_per_period / CPU_HZ * 1000.0,
                a.period_s,
            );
        }
        let _ = writeln!(
            out,
            "energy : {:.1} uA avg -> expected lifetime {:.0} days",
            p.avg_current_ua, p.lifetime_days
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(v: Version) -> AppResourceSpec {
        // 8-feature model: 12 header + 4·25 + 4 crc = 116 bytes;
        // 5-feature: 12 + 4·16 + 4 = 80.
        let model_bytes = match v {
            Version::Reduced => 80,
            _ => 116,
        };
        sift_app_spec(v, &SiftConfig::default(), model_bytes)
    }

    /// Table III, memory rows: compare against the paper's numbers.
    #[test]
    fn table3_memory_shape() {
        let profiler = ResourceProfiler::default();
        let kb = |b: usize| b as f64 / 1024.0;

        let o = profiler.profile(&[&spec(Version::Original)]);
        let s = profiler.profile(&[&spec(Version::Simplified)]);
        let r = profiler.profile(&[&spec(Version::Reduced)]);

        // Paper: system FRAM 77.03 / 71.58 / 56.29 KB.
        assert!((kb(o.system_fram_bytes) - 77.03).abs() < 1.5, "{}", kb(o.system_fram_bytes));
        assert!((kb(s.system_fram_bytes) - 71.58).abs() < 1.5, "{}", kb(s.system_fram_bytes));
        assert!((kb(r.system_fram_bytes) - 56.29).abs() < 0.1, "{}", kb(r.system_fram_bytes));

        // Paper: detector FRAM 4.79 / 4.02 / 2.56 KB.
        assert!((kb(o.app_fram_bytes) - 4.79).abs() < 0.1, "{}", kb(o.app_fram_bytes));
        assert!((kb(s.app_fram_bytes) - 4.02).abs() < 0.1, "{}", kb(s.app_fram_bytes));
        assert!((kb(r.app_fram_bytes) - 2.56).abs() < 0.1, "{}", kb(r.app_fram_bytes));
        assert!(o.app_fram_bytes > s.app_fram_bytes);
        assert!(s.app_fram_bytes > r.app_fram_bytes);

        // Paper: detector SRAM 259 / 259 / 69 B (exact by construction).
        assert_eq!(o.app_sram_bytes, 259);
        assert_eq!(s.app_sram_bytes, 259);
        assert_eq!(r.app_sram_bytes, 69);
        assert_eq!(o.system_sram_bytes, 694);
    }

    /// Table III, lifetime row: 23 / 26 / 55 days.
    #[test]
    fn table3_lifetime_from_profile() {
        let profiler = ResourceProfiler::default();
        let days = |v: Version| profiler.profile(&[&spec(v)]).lifetime_days;
        let (o, s, r) = (
            days(Version::Original),
            days(Version::Simplified),
            days(Version::Reduced),
        );
        assert!((o - 23.0).abs() < 3.0, "original {o}");
        assert!((s - 26.0).abs() < 3.0, "simplified {s}");
        assert!((r - 55.0).abs() < 5.0, "reduced {r}");
    }

    #[test]
    fn shared_libraries_counted_once() {
        let profiler = ResourceProfiler::default();
        let a = spec(Version::Simplified);
        let mut b = spec(Version::Simplified);
        b.name = "sift-simplified-2".into();
        let single = profiler.profile(&[&a]);
        let double = profiler.profile(&[&a, &b]);
        // SoftFloat linked once; only the app footprint doubles.
        assert_eq!(double.system_fram_bytes, single.system_fram_bytes);
        assert_eq!(double.app_fram_bytes, 2 * single.app_fram_bytes);
    }

    #[test]
    fn sram_is_max_not_sum() {
        let profiler = ResourceProfiler::default();
        let o = spec(Version::Original);
        let r = spec(Version::Reduced);
        let p = profiler.profile(&[&o, &r]);
        assert_eq!(p.app_sram_bytes, 259);
    }

    #[test]
    fn longer_period_extends_lifetime() {
        let profiler = ResourceProfiler::default();
        let s = spec(Version::Original);
        let sweep = profiler.lifetime_vs_period(&s, &[1.0, 3.0, 10.0, 30.0]);
        assert_eq!(sweep.len(), 4);
        assert!(sweep.windows(2).all(|w| w[1].1 > w[0].1));
    }

    #[test]
    fn arp_view_renders_all_sections() {
        let profiler = ResourceProfiler::default();
        let s = spec(Version::Original);
        let view = profiler.arp_view(&[&s]);
        assert!(view.contains("ARP-view"));
        assert!(view.contains("sift-original"));
        assert!(view.contains("lifetime"));
    }

    #[test]
    fn usage_snapshot_merge_is_order_independent() {
        let a = UsageSnapshot::single(1e6, 0.5, 0.99, 10);
        let b = UsageSnapshot::single(2e6, 0.25, 0.95, 20);
        let c = UsageSnapshot::single(4e6, 1.0, 0.90, 5);
        let fold = |xs: &[&UsageSnapshot]| {
            let mut acc = UsageSnapshot::default();
            for x in xs {
                acc.merge(x);
            }
            acc
        };
        let abc = fold(&[&a, &b, &c]);
        let cab = fold(&[&c, &a, &b]);
        assert_eq!(abc.devices, 3);
        assert_eq!(abc.devices, cab.devices);
        assert_eq!(abc.min_battery_left, cab.min_battery_left);
        assert_eq!(abc.min_battery_left, 0.90);
        assert!((abc.battery_left_sum - cab.battery_left_sum).abs() < 1e-12);
        assert_eq!(abc.dispatched, 35);
        assert!((abc.mean_battery_left() - (0.99 + 0.95 + 0.90) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let a = UsageSnapshot::single(1e6, 0.5, 0.7, 10);
        let mut acc = UsageSnapshot::default();
        acc.merge(&a);
        acc.merge(&UsageSnapshot::default());
        assert_eq!(acc, a);
        assert_eq!(UsageSnapshot::default().mean_battery_left(), 1.0);
    }

    #[test]
    fn empty_image_profiles_baseline_only() {
        let profiler = ResourceProfiler::default();
        let p = profiler.profile(&[]);
        assert_eq!(p.app_fram_bytes, 0);
        assert_eq!(p.app_sram_bytes, 0);
        assert!((p.avg_current_ua - EnergyModel::default().currents.baseline_ua()).abs() < 1e-9);
    }
}
