//! Fleet-scale parallel scenario engine.
//!
//! Simulates N wearable devices — each a full sensors → channel/ARQ →
//! base-station → SIFT pipeline ([`crate::scenario::DeviceSim`]) — on
//! an owned `std::thread` worker pool, and reduces the per-device
//! results into one [`FleetReport`]. The pool lives in one private
//! core, `ordered_fold`, the only place in the crate that spawns
//! threads; [`run_fleet_provisioned`] keeps every device's row and
//! [`crate::slab::run_fleet_streamed_provisioned`] keeps none.
//!
//! # Determinism under parallelism
//!
//! The headline guarantee: the same fleet seed produces a byte-identical
//! [`FleetReport`] (same [`FleetReport::digest`]) at **any** thread
//! count. Three properties make that hold:
//!
//! 1. Every device's randomness derives from its own seed, split from
//!    the fleet seed with a SplitMix64 stream ([`device_seed`]), so a
//!    device's behaviour never depends on which worker ran it or in
//!    what order.
//! 2. Workers never share mutable state: each device sim is an owned,
//!    `Send` value, and workers only hand immutable summaries to a
//!    bounded reorder buffer.
//! 3. The reduction folds summaries strictly in device-index order
//!    (floating-point accumulation order is fixed), and nothing
//!    wall-clock-dependent enters the report — throughput numbers live
//!    in the bench harness, not here.
//!
//! # Enrollment and the sink
//!
//! Training is the expensive part of a scenario, and a fleet wearing
//! twelve subjects does not need to enroll twelve models per device:
//! the engine trains a [`ModelBank`] once up front and shares each
//! subject's model across every device wearing it (`Arc`, read-only).
//! Each device also uplinks its per-window feature vectors
//! ([`crate::basestation::BaseStation::with_feature_uplink`]); the sink
//! re-scores each device's whole window batch with **one** batched
//! backend call ([`ml::DetectorBackend::score_batch_f32`], bit-equal
//! to the scalar path for every backend) instead of per-window calls,
//! which is where fleet-scale margin statistics and per-device outlier
//! flags come from.

use crate::channel::ChannelStats;
use crate::faults::FaultSummary;
use crate::scenario::{DeviceOptions, DeviceSim, Scenario};
use crate::transport::TransportStats;
use crate::WiotError;
use amulet_sim::profiler::UsageSnapshot;
use ml::metrics::ConfusionMatrix;
use ml::{DetectorBackend, DetectorModel, Label};
use physio_sim::subject::{bank, Subject};
use sift::trainer::{ModelBank, SiftModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// SplitMix64 output function (same constants as the vendored
/// `rand::SeedableRng` seeding path). Shared with the attacker's
/// per-instance seed split (`crate::attacker`).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `device`-th seed split from `fleet_seed`: element `device + 1`
/// of the SplitMix64 stream seeded at `fleet_seed`. O(1) per device,
/// no stream state to thread through workers, and devices draw from
/// well-separated generator states rather than `seed + i`-style
/// neighbouring ones.
pub fn device_seed(fleet_seed: u64, device: usize) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    splitmix64(fleet_seed.wrapping_add(GOLDEN.wrapping_mul(device as u64 + 1)))
}

/// A fleet to simulate: `devices` copies of `template`, each with its
/// own victim (round-robin over the subject bank) and its own seed
/// (split from `seed`).
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of simulated devices.
    pub devices: usize,
    /// Worker threads (clamped to `1..=devices`).
    pub threads: usize,
    /// Fleet master seed.
    pub seed: u64,
    /// Attach a telemetry sink to every device
    /// ([`DeviceOptions::telemetry`]). Observational only: the fleet
    /// digest is byte-identical with the sink on or off.
    pub telemetry: bool,
    /// Per-device scenario; `victim` and `seed` are overridden for each
    /// device.
    pub template: Scenario,
}

impl FleetSpec {
    /// A fleet of `devices` baseline scenarios of `duration_s` seconds
    /// on one worker thread.
    pub fn new(devices: usize, duration_s: f64) -> Self {
        Self {
            devices,
            threads: 1,
            seed: 0xF1EE7,
            telemetry: false,
            template: Scenario::new(0, sift::features::Version::Simplified, duration_s),
        }
    }

    /// Builder-style thread count, clamped to `1..=devices` at
    /// construction time so a zero or oversized request can never reach
    /// the engine (it clamps again defensively, but the spec a caller
    /// inspects should already be honest).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.devices.max(1));
        self
    }

    /// Builder-style fleet seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style telemetry toggle.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Everything the reduction keeps about one device. All fields are
/// deterministic functions of the device seed; none depend on thread
/// scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Fleet-wide device index.
    pub device: usize,
    /// Subject the device wears.
    pub victim: usize,
    /// The device's split seed.
    pub seed: u64,
    /// Window-level confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Windows excluded from scoring (partial attack overlap).
    pub ambiguous_windows: usize,
    /// Windows lost to the channel.
    pub dropped_windows: usize,
    /// Windows repaired by salvage.
    pub salvaged_windows: usize,
    /// Fraction of expected windows that reached the detector.
    pub window_recovery_rate: f64,
    /// Attack-start → first-alert latency, ms.
    pub detection_latency_ms: Option<u64>,
    /// Channel counters, both links.
    pub channel: ChannelStats,
    /// ARQ counters, both links (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Stream-stalled alerts.
    pub stall_alerts: usize,
    /// Everything the fault plan did to this device, including
    /// checkpoint recovery counters. Deliberately **excluded** from
    /// [`FleetReport::digest`]: the digest format is frozen, and with
    /// zero faults these are all zero anyway.
    pub faults: FaultSummary,
    /// Alerts archived at the device's sink.
    pub alerts: usize,
    /// Energy/dispatch counters for this device.
    pub usage: UsageSnapshot,
    /// Windows re-scored by the sink's batched SVM call.
    pub windows_scored: usize,
    /// Windows the sink's batch margins flag as positive.
    pub sink_flagged: usize,
    /// Smallest sink margin (`f64::INFINITY` when nothing was scored).
    pub margin_min: f64,
    /// Sum of sink margins (index order within the device).
    pub margin_sum: f64,
    /// The device's telemetry snapshot (`None` unless
    /// [`FleetSpec::telemetry`] was set). Integer counters only, so the
    /// fleet merge is exact at any thread count; excluded from
    /// [`FleetReport::digest`] like [`DeviceSummary::faults`].
    pub telemetry: Option<telemetry::TelemetryReport>,
}

/// Why a device was flagged as a fleet outlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutlierReason {
    /// Window recovery below 80 %: the device's link is effectively
    /// down.
    LowRecovery,
    /// False-positive rate above 30 % on ≥ 5 genuine windows: the
    /// device's model misfits its wearer.
    HighFalsePositiveRate,
    /// Battery below 50 % after one session: the device is burning
    /// energy far faster than the fleet.
    LowBattery,
}

impl std::fmt::Display for OutlierReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutlierReason::LowRecovery => "low window recovery",
            OutlierReason::HighFalsePositiveRate => "high false-positive rate",
            OutlierReason::LowBattery => "low battery",
        })
    }
}

/// One flagged device.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutlier {
    /// Fleet-wide device index.
    pub device: usize,
    /// Subject the device wears.
    pub victim: usize,
    /// Why it was flagged.
    pub reason: OutlierReason,
    /// The offending metric's value.
    pub value: f64,
}

/// Aggregate result of a fleet run. Contains nothing wall-clock
/// dependent: two runs with the same [`FleetSpec`] (any thread count)
/// produce equal reports — see [`FleetReport::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Devices simulated.
    pub devices: usize,
    /// Fleet master seed.
    pub seed: u64,
    /// Total simulated device-time, seconds (`devices × duration`).
    pub simulated_device_s: f64,
    /// Confusion matrix summed over the fleet.
    pub confusion: ConfusionMatrix,
    /// Ambiguous windows summed over the fleet.
    pub ambiguous_windows: usize,
    /// Dropped/rejected windows summed over the fleet.
    pub dropped_windows: usize,
    /// Salvaged windows summed over the fleet.
    pub salvaged_windows: usize,
    /// Mean per-device window recovery (device-index fold order).
    pub mean_window_recovery: f64,
    /// Devices whose detector saw their attack.
    pub detections: usize,
    /// Mean detection latency over detecting devices, ms.
    pub mean_detection_latency_ms: Option<f64>,
    /// Channel counters summed over the fleet.
    pub channel: ChannelStats,
    /// ARQ counters summed over the fleet (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Merged energy/dispatch counters.
    pub usage: UsageSnapshot,
    /// Windows re-scored by the sink's batched inference.
    pub windows_scored: usize,
    /// Windows the sink flagged positive.
    pub sink_flagged: usize,
    /// Smallest sink margin fleet-wide (`f64::INFINITY` when none).
    pub margin_min: f64,
    /// Mean sink margin fleet-wide (0.0 when none).
    pub margin_mean: f64,
    /// Stream-stalled alerts summed over the fleet.
    pub stall_alerts: usize,
    /// Fault and checkpoint-recovery counters merged over the fleet
    /// ([`FaultSummary::merged`], device-index order). Excluded from
    /// [`FleetReport::digest`] — see [`DeviceSummary::faults`].
    pub faults: FaultSummary,
    /// Devices flagged as outliers, in device order.
    pub outliers: Vec<FleetOutlier>,
    /// Telemetry merged over the fleet in device-index order (`None`
    /// unless [`FleetSpec::telemetry`] was set). The merge drops the
    /// per-device event rings and sums the integer counters/stage
    /// stats, so it is thread-count-stable; excluded from
    /// [`FleetReport::digest`].
    pub telemetry: Option<telemetry::TelemetryReport>,
    /// Every device's summary, in device order.
    pub per_device: Vec<DeviceSummary>,
}

/// FNV-1a (64-bit) over a canonical encoding: `u64`s little-endian,
/// `f64`s via `to_bits`. Not cryptographic — a regression tripwire.
/// `pub(crate)` so a streamed run can fold the identical per-device
/// encoding as it retires rows ([`crate::slab`]).
pub(crate) struct Digest(pub(crate) u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn confusion(&mut self, c: &ConfusionMatrix) {
        self.usize(c.tp);
        self.usize(c.fp);
        self.usize(c.tn);
        self.usize(c.fn_);
    }

    fn channel(&mut self, s: &ChannelStats) {
        self.u64(s.sent);
        self.u64(s.lost);
        self.u64(s.duplicated);
        self.u64(s.reordered);
        self.u64(s.corrupted);
    }

    fn transport(&mut self, t: &Option<TransportStats>) {
        match t {
            None => self.u64(0),
            Some(t) => {
                self.u64(1);
                self.u64(t.data_sent);
                self.u64(t.retransmits);
                self.u64(t.nacks_sent);
                self.u64(t.gap_recoveries);
                self.u64(t.give_ups);
                self.u64(t.duplicates_discarded);
                self.u64(t.buffer_evictions);
            }
        }
    }

    fn usage(&mut self, u: &UsageSnapshot) {
        self.u64(u.devices);
        self.f64(u.active_cycles);
        self.f64(u.consumed_mah);
        self.f64(u.min_battery_left);
        self.f64(u.battery_left_sum);
        self.u64(u.dispatched);
    }
}

/// Fold one device summary into `d` — the per-device portion of the
/// canonical digest encoding, shared between [`FleetReport::digest`],
/// [`FleetReport::slab_digest`] and the streamed run's fold.
pub(crate) fn digest_device(d: &mut Digest, s: &DeviceSummary) {
    d.usize(s.device);
    d.usize(s.victim);
    d.u64(s.seed);
    d.confusion(&s.confusion);
    d.usize(s.ambiguous_windows);
    d.usize(s.dropped_windows);
    d.usize(s.salvaged_windows);
    d.f64(s.window_recovery_rate);
    match s.detection_latency_ms {
        None => d.u64(0),
        Some(ms) => {
            d.u64(1);
            d.u64(ms);
        }
    }
    d.channel(&s.channel);
    d.transport(&s.transport);
    d.usize(s.stall_alerts);
    d.usize(s.alerts);
    d.usage(&s.usage);
    d.usize(s.windows_scored);
    d.usize(s.sink_flagged);
    d.f64(s.margin_min);
    d.f64(s.margin_sum);
}

impl FleetReport {
    /// Fold the aggregate (non-per-device) portion of the report into
    /// `d`, in the frozen canonical order.
    pub(crate) fn digest_aggregates_into(&self, d: &mut Digest) {
        d.usize(self.devices);
        d.u64(self.seed);
        d.f64(self.simulated_device_s);
        d.confusion(&self.confusion);
        d.usize(self.ambiguous_windows);
        d.usize(self.dropped_windows);
        d.usize(self.salvaged_windows);
        d.f64(self.mean_window_recovery);
        d.usize(self.detections);
        match self.mean_detection_latency_ms {
            None => d.u64(0),
            Some(ms) => {
                d.u64(1);
                d.f64(ms);
            }
        }
        d.channel(&self.channel);
        d.transport(&self.transport);
        d.usage(&self.usage);
        d.usize(self.windows_scored);
        d.usize(self.sink_flagged);
        d.f64(self.margin_min);
        d.f64(self.margin_mean);
        d.usize(self.stall_alerts);
        d.usize(self.outliers.len());
        for o in &self.outliers {
            d.usize(o.device);
            d.usize(o.victim);
            d.u64(o.reason as u64);
            d.f64(o.value);
        }
    }

    /// A 64-bit digest of the entire report (every aggregate and every
    /// per-device summary). Two runs of the same [`FleetSpec`] at any
    /// thread count produce the same digest; the deterministic test
    /// harness pins this value in golden traces.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        self.digest_aggregates_into(&mut d);
        d.usize(self.per_device.len());
        for s in &self.per_device {
            digest_device(&mut d, s);
        }
        d.0
    }

    /// The streaming-order digest: per-device entries first (index
    /// order), then the device count, then the aggregates. This is the
    /// ordering a bounded-memory engine can compute without ever
    /// holding `per_device` — a streamed run folds each summary as it
    /// retires and appends the aggregates at the end
    /// ([`crate::slab::run_fleet_streamed`]). On a rows-kept report this
    /// method produces the identical value from the stored summaries,
    /// which is how the equivalence tests compare the two entry points.
    pub fn slab_digest(&self) -> u64 {
        let mut d = Digest::new();
        for s in &self.per_device {
            digest_device(&mut d, s);
        }
        d.usize(self.devices);
        self.digest_aggregates_into(&mut d);
        d.0
    }
}

/// Everything one device needs to run, decided by a
/// [`FleetProvisioner`]: the fully resolved scenario (victim and seed
/// set) plus the models to inject and, for campaign populations, the
/// subject the device wears.
pub struct DeviceProvision<'a> {
    /// The device's concrete scenario.
    pub scenario: Scenario,
    /// Subject override ([`DeviceOptions::subject`]); `None` wears
    /// `bank()[scenario.victim]` as always.
    pub subject: Option<&'a Subject>,
    /// Gold SVM model for sink-side comparison, when one exists.
    pub model: Option<&'a SiftModel>,
    /// Deployed detector backend for the device.
    pub deployed: &'a DetectorModel,
}

/// Decides, per device index, what that device runs. The engine calls
/// [`FleetProvisioner::provision`] from worker threads (hence `Sync`);
/// implementations must be pure functions of `(spec, device)` or the
/// determinism guarantee breaks. The legacy bank round-robin is
/// [`run_fleet_with_bank`]; the campaign engine provisions
/// population-scale victims and per-wave attacks through the same seam.
pub trait FleetProvisioner: Sync {
    /// Build the provision for `device`.
    ///
    /// # Errors
    ///
    /// Implementations return [`WiotError::InvalidScenario`] when the
    /// device cannot be provisioned (e.g. no model for its victim).
    fn provision(&self, spec: &FleetSpec, device: usize)
        -> Result<DeviceProvision<'_>, WiotError>;
}

/// The legacy provisioning policy: victims round-robin over the
/// subject bank, models shared from a pre-trained [`ModelBank`]. Both
/// bank entry points ([`run_fleet_with_bank`] and
/// [`crate::slab::run_fleet_streamed`]) build it through
/// [`BankProvisioner::new`], the one place the bank is checked against
/// the template.
pub(crate) struct BankProvisioner<'b> {
    models: &'b ModelBank,
    subjects_len: usize,
}

impl<'b> BankProvisioner<'b> {
    /// Provision `spec`'s devices from `models`.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] when the bank's detector
    /// version or backend does not match the fleet template.
    pub(crate) fn new(spec: &FleetSpec, models: &'b ModelBank) -> Result<Self, WiotError> {
        if models.version() != spec.template.version {
            return Err(WiotError::InvalidScenario {
                reason: "model bank version does not match the fleet template",
            });
        }
        if models.kind() != spec.template.backend {
            return Err(WiotError::InvalidScenario {
                reason: "model bank backend does not match the fleet template",
            });
        }
        Ok(Self {
            models,
            subjects_len: bank().len(),
        })
    }
}

impl FleetProvisioner for BankProvisioner<'_> {
    fn provision(
        &self,
        spec: &FleetSpec,
        device: usize,
    ) -> Result<DeviceProvision<'_>, WiotError> {
        let mut scenario = spec.template.clone();
        scenario.victim = device % self.subjects_len;
        scenario.seed = device_seed(spec.seed, device);
        let deployed = self
            .models
            .deployed(scenario.victim)
            .ok_or(WiotError::InvalidScenario {
                reason: "model bank does not cover the device's victim",
            })?;
        let model = self.models.get(scenario.victim).map(|m| m.as_ref());
        Ok(DeviceProvision {
            scenario,
            subject: None,
            model,
            deployed: deployed.as_ref(),
        })
    }
}

/// Provision device `device`, run it end-to-end, and batch-score its
/// uplinked features at the sink.
fn run_device(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    device: usize,
) -> Result<DeviceSummary, WiotError> {
    let DeviceProvision {
        scenario,
        subject,
        model,
        deployed,
    } = prov.provision(spec, device)?;
    let mut sim = DeviceSim::with_options(
        &scenario,
        DeviceOptions {
            model,
            deployed: Some(deployed),
            feature_uplink: true,
            telemetry: spec.telemetry,
            subject,
        },
    )?;
    sim.run_to_completion()?;

    // Sink-side batched inference: one margin computation over the
    // device's whole window batch instead of per-window calls.
    let features = sim.take_uplinked_features();
    let mut flat = Vec::with_capacity(features.len() * deployed.dim());
    for (_, f) in &features {
        flat.extend_from_slice(f);
    }
    let margins = deployed.score_batch_f32(&flat)?;
    let sink_flagged = margins
        .iter()
        .filter(|&&m| Label::from_sign(f64::from(m)) == Label::Positive)
        .count();
    let margin_min = margins
        .iter()
        .fold(f64::INFINITY, |acc, &m| acc.min(f64::from(m)));
    let margin_sum: f64 = margins.iter().map(|&m| f64::from(m)).sum();

    let usage = sim.station().os().usage_snapshot();
    let victim = scenario.victim;
    let seed = scenario.seed;
    let mut report = sim.into_report()?;
    let telemetry = report.telemetry.take();
    Ok(DeviceSummary {
        device,
        victim,
        seed,
        confusion: report.confusion,
        ambiguous_windows: report.ambiguous_windows,
        dropped_windows: report.dropped_windows,
        salvaged_windows: report.salvaged_windows,
        window_recovery_rate: report.window_recovery_rate,
        detection_latency_ms: report.detection_latency_ms,
        channel: report.channel,
        transport: report.transport,
        stall_alerts: report.stall_alerts,
        faults: report.faults,
        alerts: report.sink.alerts().len(),
        usage,
        windows_scored: margins.len(),
        sink_flagged,
        margin_min,
        margin_sum,
        telemetry,
    })
}

/// Incremental fleet reduction: push per-device summaries **in
/// device-index order**, then [`Reducer::finish`]. The fold is the
/// exact sequential accumulation the fleet digest was frozen over —
/// f64 accumulation order never depends on how many threads produced
/// the summaries — and because it is incremental a streamed run can
/// retire each summary right after folding it instead of keeping the
/// whole fleet resident ([`crate::slab`]).
#[derive(Default)]
struct Reducer {
    count: usize,
    confusion: ConfusionMatrix,
    ambiguous: usize,
    dropped: usize,
    salvaged: usize,
    recovery_sum: f64,
    detections: usize,
    latency_sum: f64,
    channel: ChannelStats,
    transport: Option<TransportStats>,
    usage: UsageSnapshot,
    windows_scored: usize,
    sink_flagged: usize,
    margin_min: f64,
    margin_sum: f64,
    stall_alerts: usize,
    faults: FaultSummary,
    telemetry: Option<telemetry::TelemetryReport>,
    outliers: Vec<FleetOutlier>,
}

impl Reducer {
    fn new() -> Self {
        Self {
            margin_min: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Fold one device into the aggregate. Summaries must arrive in
    /// device-index order.
    fn push(&mut self, s: &DeviceSummary) {
        self.count += 1;
        self.confusion.tp += s.confusion.tp;
        self.confusion.fp += s.confusion.fp;
        self.confusion.tn += s.confusion.tn;
        self.confusion.fn_ += s.confusion.fn_;
        self.ambiguous += s.ambiguous_windows;
        self.dropped += s.dropped_windows;
        self.salvaged += s.salvaged_windows;
        self.recovery_sum += s.window_recovery_rate;
        if let Some(ms) = s.detection_latency_ms {
            self.detections += 1;
            self.latency_sum += ms as f64;
        }
        self.channel = crate::scenario::add_channel_stats(self.channel, s.channel);
        self.transport = match (self.transport, s.transport) {
            (Some(a), Some(b)) => Some(crate::scenario::add_transport_stats(a, b)),
            (None, b) => b,
            (a, None) => a,
        };
        self.usage.merge(&s.usage);
        self.windows_scored += s.windows_scored;
        self.sink_flagged += s.sink_flagged;
        self.margin_min = self.margin_min.min(s.margin_min);
        self.margin_sum += s.margin_sum;
        self.stall_alerts += s.stall_alerts;
        self.faults = self.faults.merged(s.faults);
        if let Some(t) = &s.telemetry {
            match self.telemetry.as_mut() {
                Some(m) => m.merge(t),
                None => {
                    // The aggregate carries counters, not any single
                    // device's event trace.
                    let mut first = t.clone();
                    first.events.clear();
                    self.telemetry = Some(first);
                }
            }
        }

        if s.window_recovery_rate < 0.8 {
            self.outliers.push(FleetOutlier {
                device: s.device,
                victim: s.victim,
                reason: OutlierReason::LowRecovery,
                value: s.window_recovery_rate,
            });
        }
        let genuine = s.confusion.fp + s.confusion.tn;
        if genuine >= 5 {
            let fp_rate = s.confusion.fp as f64 / genuine as f64;
            if fp_rate > 0.3 {
                self.outliers.push(FleetOutlier {
                    device: s.device,
                    victim: s.victim,
                    reason: OutlierReason::HighFalsePositiveRate,
                    value: fp_rate,
                });
            }
        }
        let battery = s.usage.mean_battery_left();
        if battery < 0.5 {
            self.outliers.push(FleetOutlier {
                device: s.device,
                victim: s.victim,
                reason: OutlierReason::LowBattery,
                value: battery,
            });
        }
    }

    /// Close the fold into a [`FleetReport`] with an empty
    /// `per_device`; a caller that kept rows moves them in afterwards.
    fn finish(self, seed: u64, duration_s: f64) -> FleetReport {
        let devices = self.count;
        FleetReport {
            devices,
            seed,
            simulated_device_s: devices as f64 * duration_s,
            confusion: self.confusion,
            ambiguous_windows: self.ambiguous,
            dropped_windows: self.dropped,
            salvaged_windows: self.salvaged,
            mean_window_recovery: if devices == 0 {
                0.0
            } else {
                self.recovery_sum / devices as f64
            },
            detections: self.detections,
            mean_detection_latency_ms: if self.detections == 0 {
                None
            } else {
                Some(self.latency_sum / self.detections as f64)
            },
            channel: self.channel,
            transport: self.transport,
            usage: self.usage,
            windows_scored: self.windows_scored,
            sink_flagged: self.sink_flagged,
            margin_min: self.margin_min,
            margin_mean: if self.windows_scored == 0 {
                0.0
            } else {
                self.margin_sum / self.windows_scored as f64
            },
            stall_alerts: self.stall_alerts,
            faults: self.faults,
            telemetry: self.telemetry,
            outliers: self.outliers,
            per_device: Vec::new(),
        }
    }
}

/// How much of the fleet the core held at once during a run.
pub(crate) struct Residency {
    /// Worker threads actually used (requested count clamped to
    /// `1..=n`).
    pub(crate) workers: usize,
    /// Maximum results the reorder window may hold (`workers × 4`).
    pub(crate) window_cap: usize,
    /// Most results that were ever pending at once, always
    /// `≤ window_cap`.
    pub(crate) high_water: usize,
}

/// Reorder buffer between the unordered workers and the in-order
/// folder.
struct FoldState<T> {
    /// Finished results waiting to become contiguous.
    pending: BTreeMap<usize, T>,
    /// Next index the folder will retire.
    next_fold: usize,
    /// Lowest-index error seen so far.
    error: Option<(usize, WiotError)>,
    /// Largest `pending.len()` ever observed.
    high_water: usize,
}

/// Everything the workers and the folder share.
struct Shared<T> {
    /// Monotone job-claim cursor.
    cursor: AtomicUsize,
    fold: Mutex<FoldState<T>>,
    /// Workers wait here for the claim window to reach their index (or
    /// for an error at or below it).
    can_claim: Condvar,
    /// The folder waits here for the next contiguous result (or an
    /// error at exactly `next_fold`).
    ready: Condvar,
    window_cap: usize,
}

impl<T> Shared<T> {
    fn fold_state(&self) -> MutexGuard<'_, FoldState<T>> {
        self.fold.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until index `i` is inside the claim window; `false` means
    /// an error at or below `i` made its result irrelevant. Bounds the
    /// reorder buffer: `i < next_fold + window_cap` at proceed time and
    /// `next_fold` only grows, so every pending index stays within
    /// `window_cap` of the fold frontier.
    fn wait_for_window(&self, i: usize) -> bool {
        let mut st = self.fold_state();
        loop {
            if st.error.as_ref().is_some_and(|(e, _)| *e <= i) {
                return false;
            }
            if i < st.next_fold + self.window_cap {
                return true;
            }
            st = self
                .can_claim
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hand index `i`'s result to the folder.
    fn deliver(&self, i: usize, value: T) {
        let mut st = self.fold_state();
        // A result at or above a recorded error will never be folded.
        if st.error.as_ref().is_none_or(|(e, _)| *e > i) {
            st.pending.insert(i, value);
            st.high_water = st.high_water.max(st.pending.len());
        }
        self.ready.notify_all();
    }

    /// Record index `i`'s error; the lowest index wins.
    fn fail(&self, i: usize, err: WiotError) {
        let mut st = self.fold_state();
        if st.error.as_ref().is_none_or(|(e, _)| i < *e) {
            st.error = Some((i, err));
            // Results above the error are dead weight; drop them now.
            st.pending.split_off(&i);
        }
        // Wake everyone: waiting claimants may now skip, and the folder
        // may now be looking at the erroring index.
        self.can_claim.notify_all();
        self.ready.notify_all();
    }

    /// Block until the result at index `next` is ready and take it, or
    /// return the error recorded at exactly `next`.
    fn await_next(&self, next: usize) -> Result<T, WiotError> {
        let mut st = self.fold_state();
        loop {
            if let Some((e, err)) = &st.error {
                if *e == next {
                    return Err(err.clone());
                }
            }
            if let Some(value) = st.pending.remove(&next) {
                st.next_fold = next + 1;
                // The claim window just moved: wake waiters.
                self.can_claim.notify_all();
                return Ok(value);
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Records `index` as failed if the thread holding it unwinds, so a
/// panicking job or folder can never leave the other side waiting on a
/// result that will not come. The worker scope then re-raises the
/// panic.
struct FailOnUnwind<'s, T> {
    shared: &'s Shared<T>,
    index: usize,
}

impl<T> Drop for FailOnUnwind<'_, T> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared.fail(
                self.index,
                WiotError::InvalidScenario {
                    reason: "fleet worker panicked",
                },
            );
        }
    }
}

/// The crate's one ordered-parallel mechanism: run `job(i)` for every
/// `i` in `0..n` on up to `threads` scoped workers and feed each result
/// to `fold` strictly in index order, on the calling thread. Fleets
/// simulate devices through it and the campaign engine enrolls its
/// victim pool through it.
///
/// Workers claim indices from a shared cursor (dynamic load balance),
/// but a worker may only start index `i` once `i < next_fold +
/// workers × 4`, so at most that many finished results ever wait in the
/// reorder buffer. Because `fold` sees results in index order, its
/// output never depends on the thread count or the schedule.
///
/// A panicking `job` fails its index (a panicking `fold`, index 0)
/// before unwinding, so the run winds down and the worker scope
/// re-raises the panic instead of deadlocking.
///
/// # Errors
///
/// Returns the lowest-index job error, deterministically regardless of
/// which worker hit it first. Workers holding lower indices keep
/// running after an error is recorded (a lower-index error may still
/// surface); workers claiming indices at or above it skip out.
pub(crate) fn ordered_fold<T, J, F>(
    n: usize,
    threads: usize,
    job: J,
    mut fold: F,
) -> Result<Residency, WiotError>
where
    T: Send,
    J: Fn(usize) -> Result<T, WiotError> + Sync,
    F: FnMut(T),
{
    let workers = threads.clamp(1, n.max(1));
    let shared = Shared {
        cursor: AtomicUsize::new(0),
        fold: Mutex::new(FoldState {
            pending: BTreeMap::new(),
            next_fold: 0,
            error: None,
            high_water: 0,
        }),
        can_claim: Condvar::new(),
        ready: Condvar::new(),
        window_cap: workers * 4,
    };
    let worker = || loop {
        let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n || !shared.wait_for_window(i) {
            return;
        }
        let guard = FailOnUnwind {
            shared: &shared,
            index: i,
        };
        let result = job(i);
        drop(guard);
        match result {
            Ok(value) => shared.deliver(i, value),
            Err(e) => return shared.fail(i, e),
        }
    };
    let folded = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        // A panicking fold fails index 0, so every waiting claimant
        // skips out.
        let _guard = FailOnUnwind {
            shared: &shared,
            index: 0,
        };
        let folded = (0..n).try_for_each(|next| shared.await_next(next).map(&mut fold));
        // Join the workers here rather than leave it to the scope: the
        // scope only waits for their closures to return, so the next
        // fan-out could start before these threads have exited and
        // handed their malloc arenas back, and then open new arenas —
        // a timing-dependent jump of a few MiB in peak RSS.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        folded
    });
    folded?;
    let high_water = shared.fold_state().high_water;
    Ok(Residency {
        workers,
        window_cap: shared.window_cap,
        high_water,
    })
}

/// Run every device of `spec` through [`ordered_fold`]: fold each
/// summary into the aggregates in device-index order, then hand it to
/// `retire`, which decides whether the row is kept. The returned
/// report's `per_device` is empty.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet and
/// propagates the lowest-device-index provisioning or simulation error.
pub(crate) fn fold_fleet(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
    mut retire: impl FnMut(DeviceSummary),
) -> Result<(FleetReport, Residency), WiotError> {
    if spec.devices == 0 {
        return Err(WiotError::InvalidScenario {
            reason: "fleet must have at least one device",
        });
    }
    let mut reducer = Reducer::new();
    let residency = ordered_fold(
        spec.devices,
        spec.threads,
        |device| run_device(spec, prov, device),
        |summary| {
            reducer.push(&summary);
            retire(summary);
        },
    )?;
    Ok((
        reducer.finish(spec.seed, spec.template.duration_s),
        residency,
    ))
}

/// Run a fleet with a pre-trained [`ModelBank`] (callers comparing
/// thread counts or sweeping seeds train once and reuse it).
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet or a bank
/// whose detector version or backend does not match the template, and
/// propagates the lowest-device-index simulation error (deterministic
/// regardless of which worker hit it first).
pub fn run_fleet_with_bank(spec: &FleetSpec, models: &ModelBank) -> Result<FleetReport, WiotError> {
    run_fleet_provisioned(spec, &BankProvisioner::new(spec, models)?)
}

/// Run a fleet through an arbitrary [`FleetProvisioner`], keeping every
/// device's summary in [`FleetReport::per_device`]. Everything
/// device-specific comes from the provisioner; the thread-count
/// invariance guarantee holds for any provisioner that is a pure
/// function of `(spec, device)`. [`crate::slab::run_fleet_streamed_provisioned`]
/// runs the same engine without keeping rows.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an empty fleet,
/// propagates the lowest-device-index provisioning or simulation error
/// (deterministic regardless of which worker hit it first).
pub fn run_fleet_provisioned(
    spec: &FleetSpec,
    prov: &dyn FleetProvisioner,
) -> Result<FleetReport, WiotError> {
    let mut rows = Vec::with_capacity(spec.devices);
    let (mut report, _) = fold_fleet(spec, prov, |summary| rows.push(summary))?;
    report.per_device = rows;
    Ok(report)
}

/// Train the model bank for `spec` (one model per subject, shared
/// across devices) and run the fleet.
///
/// # Errors
///
/// As [`run_fleet_with_bank`], plus training errors.
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetReport, WiotError> {
    let models = ModelBank::train_backend(
        &bank(),
        spec.template.version,
        spec.template.backend,
        &spec.template.config,
        spec.seed,
    )?;
    run_fleet_with_bank(spec, &models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn device_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..256).map(|i| device_seed(42, i)).collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "colliding device seeds");
        // Stable across calls (pure function of fleet seed + index).
        assert_eq!(device_seed(42, 17), seeds[17]);
        // A different fleet seed moves every stream.
        assert!((0..256).all(|i| device_seed(43, i) != seeds[i]));
    }

    /// Collect [`ordered_fold`]'s results in fold order.
    fn fan_out<T: Send>(
        n: usize,
        threads: usize,
        job: impl Fn(usize) -> Result<T, WiotError> + Sync,
    ) -> Result<Vec<T>, WiotError> {
        let mut out = Vec::with_capacity(n);
        ordered_fold(n, threads, job, |v| out.push(v))?;
        Ok(out)
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        for n in [0usize, 1, 2, 5, 17] {
            for threads in [1usize, 2, 3, 8] {
                let out = fan_out(n, threads, |i| Ok(i * i)).unwrap();
                let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(out, expect, "n {n} threads {threads}");
            }
        }
    }

    #[test]
    fn fan_out_returns_the_lowest_index_error() {
        let fail_at = |i: usize| -> Result<usize, WiotError> {
            if i % 4 == 3 {
                Err(WiotError::RetryBudgetExhausted {
                    stream: crate::device::Stream::Ecg,
                    seq: i as u64,
                })
            } else {
                Ok(i)
            }
        };
        for n in [4usize, 5, 12, 30] {
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    fan_out(n, threads, fail_at),
                    Err(WiotError::RetryBudgetExhausted {
                        stream: crate::device::Stream::Ecg,
                        seq: 3,
                    }),
                    "n {n} threads {threads}"
                );
            }
        }
        // Fewer jobs than threads, all failing: index 0 still wins.
        for threads in [1usize, 2, 3, 8] {
            let err = fan_out(2, threads, |i| -> Result<(), WiotError> {
                Err(WiotError::RetryBudgetExhausted {
                    stream: crate::device::Stream::Abp,
                    seq: i as u64,
                })
            });
            assert_eq!(
                err,
                Err(WiotError::RetryBudgetExhausted {
                    stream: crate::device::Stream::Abp,
                    seq: 0,
                })
            );
        }
    }

    #[test]
    fn panicking_fold_is_re_raised_not_deadlocked() {
        // Far more jobs than the reorder window: without the fold's
        // unwind guard, workers would wait forever for the window to
        // move. Polled with a deadline so a regression fails, not hangs.
        let run = thread::spawn(|| {
            std::panic::catch_unwind(|| {
                ordered_fold(64, 2, Ok, |i: usize| assert_ne!(i, 1, "injected fold panic"))
            })
            .is_err()
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !run.is_finished() {
            assert!(std::time::Instant::now() < deadline, "core deadlocked on a panicking fold");
            thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(run.join().unwrap(), "the fold's panic was swallowed");
    }

    #[test]
    fn empty_fleet_rejected() {
        let spec = FleetSpec::new(0, 10.0);
        assert!(matches!(
            run_fleet(&spec),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn mismatched_bank_version_rejected() {
        let spec = FleetSpec::new(1, 10.0);
        let models = ModelBank::train(
            &bank(),
            sift::features::Version::Reduced,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_with_bank(&spec, &models),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let spec = FleetSpec::new(3, 9.0).with_seed(7);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let one = run_fleet_with_bank(&spec, &models).unwrap();
        let three = run_fleet_with_bank(&spec.clone().with_threads(3), &models).unwrap();
        assert_eq!(one, three);
        assert_eq!(one.digest(), three.digest());
        assert_eq!(one.devices, 3);
        assert_eq!(one.per_device.len(), 3);
        // Distinct devices really ran distinct streams.
        assert!(one.per_device[0].seed != one.per_device[1].seed);
        assert!(one.usage.devices == 3);
        // Batched sink re-scoring saw the emitted windows.
        assert!(one.windows_scored > 0);
    }

    #[test]
    fn telemetry_never_perturbs_the_fleet_digest() {
        // The frozen digest is the tentpole invariant: enabling the
        // sink must leave it byte-identical, at any thread count, and
        // the merged telemetry itself must be thread-count-stable.
        let spec = FleetSpec::new(3, 9.0).with_seed(11);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let off = run_fleet_with_bank(&spec, &models).unwrap();
        let on = run_fleet_with_bank(&spec.clone().with_telemetry(true), &models).unwrap();
        let on_threaded = run_fleet_with_bank(
            &spec.clone().with_telemetry(true).with_threads(3),
            &models,
        )
        .unwrap();
        assert_eq!(off.digest(), on.digest(), "telemetry changed the digest");
        assert_eq!(on.digest(), on_threaded.digest());
        assert!(off.telemetry.is_none());
        let merged = on.telemetry.as_ref().expect("sink was on");
        assert_eq!(on.telemetry, on_threaded.telemetry, "merge not thread-stable");
        assert!(merged.events.is_empty(), "aggregate must not carry a trace");
        assert_eq!(
            merged.counter(telemetry::CounterId::PacketsSent),
            on.channel.sent
        );
        // Per-device snapshots keep their event traces.
        assert!(on.per_device.iter().all(|d| d
            .telemetry
            .as_ref()
            .is_some_and(|t| !t.events.is_empty())));
    }

    #[test]
    fn tsetlin_fleet_is_thread_count_stable() {
        let mut spec = FleetSpec::new(2, 9.0).with_seed(5);
        spec.template.backend = ml::BackendKind::Tsetlin;
        let models = ModelBank::train_backend(
            &bank(),
            spec.template.version,
            ml::BackendKind::Tsetlin,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let one = run_fleet_with_bank(&spec, &models).unwrap();
        let two = run_fleet_with_bank(&spec.clone().with_threads(2), &models).unwrap();
        assert_eq!(one.digest(), two.digest());
        assert!(one.windows_scored > 0, "sink saw no windows");
        // An SVM bank cannot drive a Tsetlin fleet.
        let svm = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        assert!(matches!(
            run_fleet_with_bank(&spec, &svm),
            Err(WiotError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn builder_clamps_zero_and_oversized_threads() {
        // A zero request must not smuggle a divide-by-zero or an empty
        // worker pool into the engine.
        let spec = FleetSpec::new(4, 9.0).with_threads(0);
        assert_eq!(spec.threads, 1);
        // More workers than devices collapses to one per device.
        let spec = FleetSpec::new(4, 9.0).with_threads(64);
        assert_eq!(spec.threads, 4);
        // Degenerate empty fleet still stores a sane count; the engine
        // rejects the empty fleet itself.
        let spec = FleetSpec::new(0, 9.0).with_threads(8);
        assert_eq!(spec.threads, 1);
    }

    #[test]
    fn oversized_thread_count_is_clamped() {
        let spec = FleetSpec::new(2, 9.0).with_threads(64);
        let models = ModelBank::train(
            &bank(),
            spec.template.version,
            &spec.template.config,
            spec.seed,
        )
        .unwrap();
        let r = run_fleet_with_bank(&spec, &models).unwrap();
        assert_eq!(r.devices, 2);
    }
}
