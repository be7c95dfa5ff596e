//! Deterministic end-to-end scenarios: sensors → attacker → faults →
//! channel/ARQ → base station → sink, scored against ground truth.
//!
//! A scenario optionally carries a [`FaultPlan`] (timed link
//! degradation, sensor dropout, stuck sensors, brownout reboots, clock
//! drift), an ARQ configuration for the wireless hop, and the base
//! station's graceful-degradation knobs (partial-window salvage, stream
//! watchdog). Everything is driven from the single scenario seed, so a
//! faulted run replays byte-identically.

use crate::attacker::{attack_window_ms, AttackMode, Attacker};
use crate::basestation::{BaseStation, WindowOutcome};
use crate::channel::{Channel, ChannelConfig, ChannelStats, Delivery, LossModel};
use crate::device::{SensorDevice, Stream};
use crate::faults::{FaultPlan, FaultSummary};
use crate::persist::Persistence;
use crate::sink::Sink;
use crate::survival::{
    window_is_skipped, SurvivalAction, SurvivalConfig, SurvivalInputs, SurvivalPolicy,
    SurvivalVerdict,
};
use crate::transport::{ArqConfig, ArqLink, TransportStats};
use crate::WiotError;
use amulet_sim::apps::SiftApp;
use amulet_sim::costs::{detector_cycles, tsetlin_classifier_cycles, OpCosts};
use amulet_sim::energy::BatteryState;
use ml::metrics::ConfusionMatrix;
use ml::{BackendKind, DetectorBackend, DetectorModel, Label};
use physio_sim::record::{Record, SynthProfile};
use physio_sim::subject::{bank, Subject};
use sift::config::SiftConfig;
use sift::features::Version;
use sift::trainer::SiftModel;
use sift::zoo::{train_backend_for_subject, tsetlin_pairs};
use telemetry::{CounterId, EventCode, GaugeId, Telemetry, TelemetryReport};

/// Observed quality of the sensor → base-station links, as reported by
/// the channel and ARQ layers; the survival policy's link input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Fraction of offered packets the channel lost, `[0, 1]`.
    pub loss_rate: f64,
    /// ARQ retransmissions per first-time data packet.
    pub retransmit_rate: f64,
}

impl LinkQuality {
    /// Scalar badness of the link as integer permille in `[0, 1000]`:
    /// loss plus the energy drag of retransmissions (each retransmit
    /// costs roughly one packet's airtime, so it weighs like loss,
    /// capped). This is the fixed-point form the device-side survival
    /// policy ([`crate::survival`]) consumes. Non-finite inputs
    /// saturate to fully bad (a link whose statistics are broken should
    /// not be trusted).
    pub fn badness_permille(&self) -> u16 {
        let b = (self.loss_rate + 0.5 * self.retransmit_rate).clamp(0.0, 1.0);
        if b.is_finite() {
            (b * 1000.0).round() as u16
        } else {
            1000
        }
    }
}

/// Wireless-link parameters for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Packet-loss probability (independent Bernoulli loss; ignored
    /// when [`LinkParams::loss`] is set).
    pub loss_prob: f64,
    /// Base one-way delay, ms.
    pub base_delay_ms: u64,
    /// Uniform jitter bound, ms.
    pub jitter_ms: u64,
    /// Full loss-process override (e.g. Gilbert–Elliott burst loss);
    /// `None` means Bernoulli at `loss_prob`.
    pub loss: Option<LossModel>,
    /// Probability a delivered packet is duplicated by the radio MAC.
    pub dup_prob: f64,
    /// Probability a delivered packet takes the late (reordering) path.
    pub reorder_prob: f64,
    /// Extra delay of a reordered packet, ms.
    pub reorder_extra_ms: u64,
    /// Probability a delivered packet's payload is corrupted.
    pub corrupt_prob: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        Self {
            loss_prob: 0.0,
            base_delay_ms: 5,
            jitter_ms: 3,
            loss: None,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra_ms: 0,
            corrupt_prob: 0.0,
        }
    }
}

impl LinkParams {
    fn to_channel_config(self) -> ChannelConfig {
        ChannelConfig {
            loss: self
                .loss
                .unwrap_or(LossModel::Bernoulli { p: self.loss_prob }),
            base_delay_ms: self.base_delay_ms,
            jitter_ms: self.jitter_ms,
            dup_prob: self.dup_prob,
            reorder_prob: self.reorder_prob,
            reorder_extra_ms: self.reorder_extra_ms,
            corrupt_prob: self.corrupt_prob,
            ..ChannelConfig::default()
        }
    }
}

/// An attack to stage during the scenario.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// What the adversary does.
    pub mode: AttackMode,
    /// Attack start, seconds into the session.
    pub start_s: f64,
    /// Attack end, seconds into the session.
    pub end_s: f64,
}

/// A full scenario description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index of the wearer in the subject bank.
    pub victim: usize,
    /// Detector version deployed on the base station.
    pub version: Version,
    /// Detector backend family deployed on the base station
    /// ([`BackendKind::Svm`] reproduces the paper's pipeline exactly;
    /// other registered backends train from the same enrollment data).
    pub backend: BackendKind,
    /// Session length in seconds.
    pub duration_s: f64,
    /// Optional staged attack.
    pub attack: Option<AttackSpec>,
    /// Wireless link parameters.
    pub link: LinkParams,
    /// Timed environment faults injected during the session.
    pub faults: FaultPlan,
    /// ARQ on the sensor → base-station hop; `None` leaves the link
    /// unprotected.
    pub arq: Option<ArqConfig>,
    /// Salvage windows missing at most this many chunks (across both
    /// channels); `None` drops every incomplete window.
    pub salvage_max_missing: Option<usize>,
    /// Stream watchdog timeout, ms; `None` disables the watchdog.
    pub watchdog_timeout_ms: Option<u64>,
    /// Crash-consistent checkpointing: commit detector state to the
    /// simulated FRAM every tick and recover it after brownout reboots
    /// (on by default). `false` reproduces the legacy behavior where a
    /// reboot silently kept SRAM state alive and torn-write /
    /// bit-rot faults have nothing to corrupt.
    pub persist: bool,
    /// Closed-loop survival policy (`wiot::survival`): battery- and
    /// channel-aware graceful degradation of detector version, sampling
    /// duty cycle and transport retry budget. `None` (the default)
    /// leaves every legacy code path byte-identical — the policy layer
    /// does not exist in the simulation at all.
    pub survival: Option<SurvivalConfig>,
    /// Pipeline/training configuration.
    pub config: SiftConfig,
    /// Sensor packet length in seconds (must divide the window).
    pub chunk_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Which kernels synthesize the live session record.
    /// [`SynthProfile::Reference`] (the default) is the digest-pinned
    /// historical path; [`SynthProfile::Turbo`] is the documented
    /// fidelity/throughput tradeoff for fleet-scale runs. Training data
    /// is always synthesized with the reference kernels.
    pub synth: SynthProfile,
}

impl Scenario {
    /// A baseline scenario for `victim` with sensible defaults and a
    /// shortened training phase (callers doing full Table II scale use
    /// [`SiftConfig::default`]).
    pub fn new(victim: usize, version: Version, duration_s: f64) -> Self {
        Self {
            victim,
            version,
            backend: BackendKind::Svm,
            duration_s,
            attack: None,
            link: LinkParams::default(),
            faults: FaultPlan::new(),
            arq: None,
            salvage_max_missing: None,
            watchdog_timeout_ms: None,
            persist: true,
            survival: None,
            config: SiftConfig {
                train_s: 60.0,
                max_positive_per_donor: Some(15),
                ..SiftConfig::default()
            },
            chunk_s: 0.5,
            seed: 0xC0FFEE,
            synth: SynthProfile::default(),
        }
    }

    /// The same scenario hardened for a hostile environment: ARQ on the
    /// links, one-chunk salvage, and a 3-window stream watchdog.
    #[must_use]
    pub fn with_reliability(mut self) -> Self {
        self.arq = Some(ArqConfig::default());
        self.salvage_max_missing = Some(1);
        self.watchdog_timeout_ms = Some((self.config.window_s * 3.0 * 1000.0) as u64);
        self
    }
}

/// Result of running a scenario.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Window-level confusion matrix (truth: ≥ 50 % of the window inside
    /// the attack interval ⇒ altered; 0 % ⇒ genuine).
    pub confusion: ConfusionMatrix,
    /// Windows excluded from scoring because the attack covered only
    /// part of them.
    pub ambiguous_windows: usize,
    /// Windows dropped by the base station (lost packets).
    pub dropped_windows: usize,
    /// Windows repaired by zero-order-hold salvage and dispatched
    /// flagged degraded.
    pub salvaged_windows: usize,
    /// Fraction of the session's expected detection windows that
    /// reached the detector (emitted or salvaged).
    pub window_recovery_rate: f64,
    /// Latency from attack start to the first alert on an attacked
    /// window, ms (None when no attack or never detected).
    pub detection_latency_ms: Option<u64>,
    /// Observed channel loss rate (mean of both links).
    pub channel_loss_rate: f64,
    /// Channel traffic counters, summed over both links.
    pub channel: ChannelStats,
    /// ARQ counters, summed over both links (`None` when ARQ was off).
    pub transport: Option<TransportStats>,
    /// Everything the fault plan actually did.
    pub faults: FaultSummary,
    /// Stream-stalled alerts the watchdog raised.
    pub stall_alerts: usize,
    /// Battery fraction remaining at the end of the session.
    pub battery_left: f64,
    /// Final telemetry snapshot: counters, per-stage span statistics
    /// and the event ring. `None` unless [`DeviceOptions::telemetry`]
    /// enabled the sink — and never an input to anything above.
    pub telemetry: Option<TelemetryReport>,
    /// What the survival policy did (`None` when [`Scenario::survival`]
    /// was off).
    pub survival: Option<SurvivalReport>,
    /// The sink with the archived alerts.
    pub sink: Sink,
}

/// Everything the survival policy did over one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalReport {
    /// Every actuation, in decision order (tick-stamped).
    pub actions: Vec<SurvivalAction>,
    /// Detector version switches performed (reflash count).
    pub version_switches: u64,
    /// Sensor chunks suppressed by the duty cycle.
    pub duty_skipped_chunks: u64,
    /// Times the transport retry posture was reconfigured.
    pub retry_reconfigs: u64,
    /// Policy ticks spent at or below the low-battery threshold.
    pub low_battery_ticks: u64,
    /// Detector version in force when the session ended.
    pub final_version: Version,
    /// Modeled battery state of charge at session end, permille.
    pub final_soc_permille: u16,
    /// First simulated instant the modeled battery crossed the
    /// configured cutoff, ms (`None` if it never did).
    pub cutoff_at_ms: Option<u64>,
    /// Policy ticks spent in each version, indexed
    /// `[Original, Simplified, Reduced]`.
    pub occupancy_ticks: [u64; 3],
}

/// One sensor → base-station link: raw channel or ARQ-protected.
enum Link {
    Raw {
        channel: Channel,
        in_flight: Vec<Delivery>,
    },
    Arq(ArqLink),
}

impl Link {
    fn new(config: ChannelConfig, seed: u64, arq: Option<ArqConfig>) -> Result<Self, WiotError> {
        let channel = Channel::with_config(config, seed)?;
        Ok(match arq {
            Some(cfg) => Link::Arq(ArqLink::new(channel, cfg)?),
            None => Link::Raw {
                channel,
                in_flight: Vec::new(),
            },
        })
    }

    fn send(&mut self, now_ms: u64, packet: crate::device::SensorPacket) {
        match self {
            Link::Raw { channel, in_flight } => {
                in_flight.extend(channel.transmit(now_ms, packet));
            }
            Link::Arq(link) => link.send(now_ms, packet),
        }
    }

    fn pump(&mut self, now_ms: u64) -> Result<Vec<Delivery>, WiotError> {
        match self {
            Link::Raw { in_flight, .. } => {
                let mut arrived = Vec::new();
                let mut flying = Vec::with_capacity(in_flight.len());
                for d in in_flight.drain(..) {
                    if d.at_ms <= now_ms {
                        arrived.push(d);
                    } else {
                        flying.push(d);
                    }
                }
                *in_flight = flying;
                arrived.sort_by_key(|d| d.at_ms);
                Ok(arrived)
            }
            Link::Arq(link) => link.pump(now_ms),
        }
    }

    fn idle(&self) -> bool {
        match self {
            Link::Raw { in_flight, .. } => in_flight.is_empty(),
            Link::Arq(link) => link.idle(),
        }
    }

    fn channel(&self) -> &Channel {
        match self {
            Link::Raw { channel, .. } => channel,
            Link::Arq(link) => link.channel(),
        }
    }

    fn set_degrade(&mut self, loss: Option<LossModel>) -> Result<(), WiotError> {
        match self {
            Link::Raw { channel, .. } => channel.set_degrade(loss),
            Link::Arq(link) => link.channel_mut().set_degrade(loss),
        }
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        match self {
            Link::Raw { .. } => None,
            Link::Arq(link) => Some(link.stats()),
        }
    }

    /// Apply the survival policy's retry posture (no-op on a raw link —
    /// there is no retransmission to budget).
    fn set_retry_budget(&mut self, max_retries: u32, extra_shift: u32) {
        if let Link::Arq(link) = self {
            link.set_retry_budget(max_retries, extra_shift);
        }
    }
}

/// Reject a session duration that is not finite and positive: an
/// infinite one would synthesize beats forever, and a NaN or
/// non-positive one would score an empty session.
pub(crate) fn check_duration(duration_s: f64) -> Result<(), WiotError> {
    if duration_s.is_finite() && duration_s > 0.0 {
        Ok(())
    } else {
        Err(WiotError::InvalidScenario {
            reason: "session duration must be finite and positive",
        })
    }
}

/// Seconds to the whole milliseconds the device clock runs on
/// (truncating; negative and NaN inputs give 0).
pub(crate) fn secs_to_ms(s: f64) -> u64 {
    (s * 1000.0) as u64
}

pub(crate) fn add_channel_stats(a: ChannelStats, b: ChannelStats) -> ChannelStats {
    ChannelStats {
        sent: a.sent + b.sent,
        lost: a.lost + b.lost,
        duplicated: a.duplicated + b.duplicated,
        reordered: a.reordered + b.reordered,
        corrupted: a.corrupted + b.corrupted,
    }
}

pub(crate) fn add_transport_stats(a: TransportStats, b: TransportStats) -> TransportStats {
    TransportStats {
        data_sent: a.data_sent + b.data_sent,
        retransmits: a.retransmits + b.retransmits,
        nacks_sent: a.nacks_sent + b.nacks_sent,
        gap_recoveries: a.gap_recoveries + b.gap_recoveries,
        give_ups: a.give_ups + b.give_ups,
        duplicates_discarded: a.duplicates_discarded + b.duplicates_discarded,
        buffer_evictions: a.buffer_evictions + b.buffer_evictions,
    }
}

/// Construction options for a [`DeviceSim`] beyond the scenario itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceOptions<'a> {
    /// Pre-trained gold model to deploy instead of training inline
    /// (SVM-backed scenarios only). The fleet engine enrolls every
    /// subject once (`sift::trainer`'s `ModelBank`) and shares one
    /// model across all devices wearing the same subject; `None`
    /// trains from the scenario seed as before.
    pub model: Option<&'a SiftModel>,
    /// Pre-trained deployable backend model. Takes precedence over
    /// `model`; its backend family must match the scenario's. This is
    /// how the fleet engine injects non-SVM bank entries.
    pub deployed: Option<&'a DetectorModel>,
    /// Enable the base station's feature uplink
    /// ([`BaseStation::with_feature_uplink`]) so the sink can re-score
    /// window batches with one batched SVM call per device.
    pub feature_uplink: bool,
    /// Attach an enabled [`telemetry::Telemetry`] sink to the station's
    /// OS: fault/window events land in the bounded ring as they happen
    /// and [`SimReport::telemetry`] carries the final snapshot. Purely
    /// observational — a traced run is bit-identical to an untraced one.
    pub telemetry: bool,
    /// Wear this subject instead of `bank()[scenario.victim]`. This is
    /// how the campaign engine runs population-scale cohorts without
    /// materializing a bank per device. An override requires an
    /// injected model (`deployed` or `model`) — inline training reads
    /// the legacy bank — and is incompatible with the survival policy,
    /// whose hot-swap retraining does the same.
    pub subject: Option<&'a Subject>,
}

/// Stable index of a version in per-version tables:
/// `[Original, Simplified, Reduced]`.
fn version_index(v: Version) -> usize {
    match v {
        Version::Original => 0,
        Version::Simplified => 1,
        Version::Reduced => 2,
    }
}

/// Host-side carrier of the survival policy inside a [`DeviceSim`]:
/// the integer policy core plus everything the simulation needs to
/// feed and actuate it (battery integration, per-version current
/// table, lazily trained models for hot-swaps, the action log).
struct SurvivalRuntime {
    policy: SurvivalPolicy,
    battery: BatteryState,
    /// Baseline (sleep) system current, µA.
    baseline_ua: u64,
    /// Detector current on top of baseline per version, µA, indexed
    /// by [`version_index`].
    active_delta_ua: [u64; 3],
    /// Per-version deployable models for version hot-swaps, trained
    /// lazily from the scenario seed on first switch into a version
    /// (the provisioned version's model is seeded at construction).
    /// All rungs use the scenario's backend family.
    models: Vec<(Version, DetectorModel)>,
    actions: Vec<SurvivalAction>,
    retry_reconfigs: u64,
    /// Whole windows the duty cycle suppressed (for the backlog
    /// sensor; chunks are counted in the fault summary).
    duty_skipped_windows: u64,
    last_skipped_window: Option<u64>,
    occupancy_ticks: [u64; 3],
    cutoff_at_ms: Option<u64>,
    window_ms: u64,
}

impl SurvivalRuntime {
    /// Build the runtime for a device provisioned with `ceiling` whose
    /// enrolled model is `embedded`. The per-version current table is
    /// the energy model's duty-cycle-weighted average (the Table III
    /// lever), rounded once to integer µA so the battery integration
    /// stays exact.
    fn new(
        cfg: SurvivalConfig,
        scenario: &Scenario,
        model: &amulet_sim::energy::EnergyModel,
        deployed: DetectorModel,
    ) -> Self {
        let baseline = model.currents.baseline_ua();
        let costs = OpCosts::default();
        let mut active_delta_ua = [0u64; 3];
        for v in Version::ALL {
            let mut cycles = detector_cycles(v, &scenario.config, &costs, 4.0);
            if scenario.backend == BackendKind::Tsetlin {
                cycles.ml_classifier = tsetlin_classifier_cycles(
                    v.feature_count(),
                    tsetlin_pairs(v) as usize,
                    &costs,
                );
            }
            let avg = model.average_current_for_cycles_ua(cycles.total(), scenario.config.window_s);
            active_delta_ua[version_index(v)] = (avg - baseline).max(0.0).round() as u64;
        }
        Self {
            policy: SurvivalPolicy::new(cfg, scenario.version),
            battery: BatteryState::from_model(model).with_initial_permille(cfg.initial_soc_permille),
            baseline_ua: baseline.round() as u64,
            active_delta_ua,
            models: vec![(scenario.version, deployed)],
            actions: Vec::new(),
            retry_reconfigs: 0,
            duty_skipped_windows: 0,
            last_skipped_window: None,
            occupancy_ticks: [0; 3],
            cutoff_at_ms: None,
            window_ms: (scenario.config.window_s * 1000.0) as u64,
        }
    }

    /// Average system current under the policy's current posture, µA:
    /// duty cycling scales only the detector's share, never the
    /// baseline (the display and radio stay on).
    fn current_ua(&self) -> u64 {
        let delta = self.active_delta_ua[version_index(self.policy.version())];
        let (skip, of) = self.policy.duty();
        let of = u64::from(of.max(1));
        let kept = of - u64::from(skip).min(of);
        self.baseline_ua + delta * kept / of
    }

    /// The deployable model for `version` in the scenario's backend
    /// family, training and caching it on first use (deterministic:
    /// same subjects, same scenario seed).
    fn model_for(
        &mut self,
        version: Version,
        scenario: &Scenario,
    ) -> Result<DetectorModel, WiotError> {
        if let Some((_, m)) = self.models.iter().find(|(v, _)| *v == version) {
            return Ok(m.clone());
        }
        let m = train_backend_for_subject(
            &bank(),
            scenario.victim,
            version,
            scenario.backend,
            &scenario.config,
            scenario.seed,
        )?;
        self.models.push((version, m.clone()));
        Ok(m)
    }
}

/// Where a [`DeviceSim`] is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sensors still producing chunks.
    Streaming,
    /// Sensors exhausted; in-flight packets and retransmissions drain.
    Draining,
    /// Flushed and watchdog-polled; only scoring remains.
    Finished,
}

/// One simulated device: a full sensors → attacker → faults →
/// channel/ARQ → base-station pipeline advanced one chunk tick at a
/// time.
///
/// [`run`] drives a single `DeviceSim` to completion; the fleet engine
/// (`crate::fleet`) owns many and steps each on a worker thread. All
/// state is owned (`Send`), so whole devices can migrate across
/// threads; determinism comes solely from the scenario seed.
pub struct DeviceSim {
    scenario: Scenario,
    live_fs: f64,
    station: BaseStation,
    ecg_dev: SensorDevice,
    abp_dev: SensorDevice,
    attacker: Option<Attacker>,
    links: [Link; 2],
    persist: Option<Persistence>,
    survival: Option<SurvivalRuntime>,
    fault_summary: FaultSummary,
    /// Whether any link ran degraded on the previous tick (edge
    /// detection for the `FaultLinkDegrade` telemetry event).
    degraded_prev: bool,
    /// Hold value per stream for stuck-at injection.
    stuck_hold: [f64; 2],
    /// Window-log entries already replayed to an adaptive attacker.
    feedback_cursor: usize,
    chunk_ms: u64,
    now_ms: u64,
    prev_ms: u64,
    drain_ticks: u32,
    phase: Phase,
}

impl std::fmt::Debug for DeviceSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceSim")
            .field("victim", &self.scenario.victim)
            .field("now_ms", &self.now_ms)
            .field("phase", &self.phase)
            .finish()
    }
}

impl DeviceSim {
    /// Build a device for `scenario`, training its model inline.
    ///
    /// # Errors
    ///
    /// Returns [`WiotError::InvalidScenario`] for inconsistent
    /// parameters and propagates training and platform errors.
    pub fn new(scenario: &Scenario) -> Result<Self, WiotError> {
        Self::with_options(scenario, DeviceOptions::default())
    }

    /// Build a device with explicit [`DeviceOptions`] (model injection,
    /// feature uplink).
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::new`]; additionally rejects an injected model
    /// whose detector version does not match the scenario's.
    pub fn with_options(
        scenario: &Scenario,
        options: DeviceOptions<'_>,
    ) -> Result<Self, WiotError> {
        check_duration(scenario.duration_s)?;
        // With a subject override the legacy bank is never touched
        // (population-scale campaigns would otherwise rebuild it per
        // device); without one, behavior is exactly as before.
        let subjects = if options.subject.is_none() {
            bank()
        } else {
            Vec::new()
        };
        if options.subject.is_some() {
            if scenario.survival.is_some() {
                return Err(WiotError::InvalidScenario {
                    reason: "subject override is incompatible with the survival policy",
                });
            }
        } else if scenario.victim >= subjects.len() {
            return Err(WiotError::InvalidScenario {
                reason: "victim index out of range",
            });
        }
        let attack_window = scenario
            .attack
            .as_ref()
            .map(|a| attack_window_ms(a.start_s, a.end_s, scenario.duration_s))
            .transpose()?;
        scenario.faults.validate(scenario.duration_s)?;

        // Deploy the injected model, or train offline then deploy.
        let deployed: DetectorModel = if let Some(d) = options.deployed {
            if d.kind() != scenario.backend {
                return Err(WiotError::InvalidScenario {
                    reason: "injected deployed model backend does not match the scenario",
                });
            }
            if d.dim() != scenario.version.feature_count() {
                return Err(WiotError::InvalidScenario {
                    reason: "injected model version does not match the scenario",
                });
            }
            d.clone()
        } else if let Some(model) = options.model {
            if scenario.backend != BackendKind::Svm {
                return Err(WiotError::InvalidScenario {
                    reason: "gold model injection deploys the SVM backend only",
                });
            }
            if model.version() != scenario.version {
                return Err(WiotError::InvalidScenario {
                    reason: "injected model version does not match the scenario",
                });
            }
            model.embedded().clone().into()
        } else {
            if options.subject.is_some() {
                return Err(WiotError::InvalidScenario {
                    reason: "subject override requires an injected deployed model",
                });
            }
            train_backend_for_subject(
                &subjects,
                scenario.victim,
                scenario.version,
                scenario.backend,
                &scenario.config,
                scenario.seed,
            )?
        };
        let app = SiftApp::new(scenario.version, deployed.clone(), scenario.config.clone())?;
        let mut station = BaseStation::new(app, scenario.config.clone(), scenario.chunk_s)?;
        if let Some(max_missing) = scenario.salvage_max_missing {
            station = station.with_salvage(max_missing);
        }
        if let Some(timeout_ms) = scenario.watchdog_timeout_ms {
            station = station.with_watchdog(timeout_ms, false)?;
        }
        if options.feature_uplink {
            station = station.with_feature_uplink(scenario.version);
        }
        if options.telemetry {
            station.os_mut().attach_telemetry(Telemetry::enabled());
        }
        // The survival policy layer, if this scenario runs one. Built
        // before the first checkpoint commit so policy-enabled runs
        // persist the 16-byte survival suffix from generation 1 on.
        let survival = scenario
            .survival
            .map(|cfg| SurvivalRuntime::new(cfg, scenario, station.os().energy_model(), deployed.clone()));

        // Crash-consistent checkpointing: charge the NVRAM region to the
        // station's FRAM map and seed generation 1 so even a reboot on
        // the very first tick has something to resume from.
        let persist = if scenario.persist {
            let mut p = Persistence::new(scenario.version, deployed)?;
            p.reserve(&mut station)?;
            if let Some(rt) = survival.as_ref() {
                p.enable_survival(rt.policy.snapshot());
            }
            p.commit(0, 0)?;
            Some(p)
        } else {
            None
        };

        // Live session data (unseen by training).
        let victim_subject = match options.subject {
            Some(s) => s,
            None => &subjects[scenario.victim],
        };
        let live = Record::synthesize_profiled(
            victim_subject,
            scenario.duration_s,
            scenario.seed ^ 0x11FE,
            scenario.synth,
        );
        let ecg_dev = SensorDevice::ecg(&live, scenario.chunk_s);
        let abp_dev = SensorDevice::abp(&live, scenario.chunk_s);

        let attacker = scenario
            .attack
            .as_ref()
            .zip(attack_window)
            .map(|(spec, (start_ms, end_ms))| {
                Attacker::new(spec.mode.clone(), start_ms, end_ms, scenario.seed ^ 0xA77)
            });

        let link_config = scenario.link.to_channel_config();
        let links = [
            Link::new(link_config.clone(), scenario.seed ^ 0xC41, scenario.arq)?,
            Link::new(link_config, scenario.seed ^ 0xC42, scenario.arq)?,
        ];

        Ok(Self {
            chunk_ms: secs_to_ms(scenario.chunk_s),
            scenario: scenario.clone(),
            live_fs: live.fs,
            station,
            ecg_dev,
            abp_dev,
            attacker,
            links,
            persist,
            survival,
            fault_summary: FaultSummary::default(),
            degraded_prev: false,
            stuck_hold: [0.0f64; 2],
            feedback_cursor: 0,
            now_ms: 0,
            prev_ms: 0,
            drain_ticks: 0,
            phase: Phase::Streaming,
        })
    }

    /// Pump both links and feed arrivals to the station, in
    /// delivery-time order across both links (stable sort: equal times
    /// keep ECG first).
    fn deliver_arrivals(&mut self) -> Result<(), WiotError> {
        let mut arrivals = self.links[0].pump(self.now_ms)?;
        arrivals.extend(self.links[1].pump(self.now_ms)?);
        arrivals.sort_by_key(|d| d.at_ms);
        for d in arrivals {
            self.station.receive(d)?;
        }
        Ok(())
    }

    /// One streaming tick. Returns `false` (consuming no tick) once both
    /// sensors are exhausted.
    fn step_stream(&mut self) -> Result<bool, WiotError> {
        let pe = self.ecg_dev.poll();
        let pa = self.abp_dev.poll();
        if pe.is_none() && pa.is_none() {
            return Ok(false);
        }

        // NVRAM bit rot first (no reboot by itself — the corruption
        // waits in FRAM until the next restore detects and discards
        // it, or the next commit overwrites the slot).
        for (byte, bit) in self.scenario.faults.bitrot_between(self.prev_ms, self.now_ms) {
            if let Some(p) = self.persist.as_mut() {
                p.flip_bit(byte, bit);
                self.fault_summary.bitrot_flips += 1;
                self.station.os_mut().telemetry_mut().event(
                    self.now_ms,
                    EventCode::FaultBitRot,
                    byte as u64,
                    u64::from(bit),
                );
            }
        }
        // Brownout reboots scheduled since the last tick.
        let reboots = self
            .scenario
            .faults
            .reboots_between(self.prev_ms, self.now_ms);
        for _ in 0..reboots {
            self.power_cycle()?;
        }
        // Torn-commit power failures: the checkpoint write sequence is
        // cut after `cut` bytes, then the station power-cycles. Without
        // persistence there is no commit to tear, but the power still
        // fails.
        for cut in self
            .scenario
            .faults
            .torn_checkpoints_between(self.prev_ms, self.now_ms)
        {
            if let Some(p) = self.persist.as_mut() {
                let stats = self.station.stats();
                p.commit_torn(
                    (stats.windows_emitted + stats.windows_salvaged) as u32,
                    self.station.alerts().len() as u32,
                    cut,
                )?;
                self.fault_summary.torn_commits += 1;
                self.station.os_mut().telemetry_mut().event(
                    self.now_ms,
                    EventCode::FaultTornCommit,
                    cut as u64,
                    0,
                );
            }
            self.power_cycle()?;
        }

        // Survival policy: integrate the battery model over this tick
        // and run the 1 Hz control loop (no-op when disabled).
        self.step_survival()?;

        // Link-degradation episodes.
        let mut any_degraded = false;
        for (i, stream) in [Stream::Ecg, Stream::Abp].iter().enumerate() {
            let want = self.scenario.faults.degrade(*stream, self.now_ms).copied();
            if want.is_some() != self.links[i].channel().is_degraded() || want.is_some() {
                self.links[i].set_degrade(want)?;
            }
            any_degraded |= want.is_some();
        }
        if any_degraded {
            self.fault_summary.degraded_link_ms += self.chunk_ms;
        }
        if any_degraded != self.degraded_prev {
            // Edge-triggered: one event per episode boundary, with the
            // gauge tracking the level in between.
            let tele = self.station.os_mut().telemetry_mut();
            tele.event(
                self.now_ms,
                EventCode::FaultLinkDegrade,
                u64::from(any_degraded),
                0,
            );
            tele.gauge_set(GaugeId::LinkDegraded, i64::from(any_degraded));
            self.degraded_prev = any_degraded;
        }

        // Offer each packet to its (possibly faulted) sensor and link.
        for (i, (stream, packet)) in [(Stream::Ecg, pe), (Stream::Abp, pa)]
            .into_iter()
            .enumerate()
        {
            let Some(mut p) = packet else { continue };
            // Survival duty cycle: a suppressed window's chunks never
            // leave the sensor — on the real device the ADC and radio
            // would not even have run.
            if let Some(rt) = self.survival.as_mut() {
                let (skip, of) = rt.policy.duty();
                let idx = self.now_ms / rt.window_ms;
                if window_is_skipped(idx, skip, of) {
                    self.fault_summary.duty_skipped_chunks += 1;
                    if rt.last_skipped_window != Some(idx) {
                        rt.last_skipped_window = Some(idx);
                        rt.duty_skipped_windows += 1;
                    }
                    continue;
                }
            }
            if stream == Stream::Ecg {
                if let Some(att) = self.attacker.as_mut() {
                    p = att.intercept(self.now_ms, p, self.live_fs);
                }
            }
            if self.scenario.faults.is_dropout(stream, self.now_ms) {
                self.fault_summary.dropout_chunks += 1;
                self.station.os_mut().telemetry_mut().event(
                    self.now_ms,
                    EventCode::FaultDropout,
                    i as u64,
                    0,
                );
                continue;
            }
            if self.scenario.faults.is_stuck(stream, self.now_ms) {
                // Frozen ADC: flat payload at the last healthy value,
                // no peak annotations.
                for s in p.samples.iter_mut() {
                    *s = self.stuck_hold[i];
                }
                p.peaks.clear();
                self.fault_summary.stuck_chunks += 1;
                self.station.os_mut().telemetry_mut().event(
                    self.now_ms,
                    EventCode::FaultStuck,
                    i as u64,
                    0,
                );
            } else if let Some(&last) = p.samples.last() {
                self.stuck_hold[i] = last;
            }
            let skew_ms = self.scenario.faults.clock_skew_ms(stream, self.now_ms);
            self.fault_summary.max_clock_skew_ms =
                self.fault_summary.max_clock_skew_ms.max(skew_ms);
            self.links[i].send(self.now_ms + skew_ms, p);
        }

        self.deliver_arrivals()?;
        self.station.poll_watchdog(self.now_ms)?;
        self.pump_attacker_feedback();

        // Commit the detector's stream position every tick: whatever
        // the next brownout destroys, at most one tick of progress is
        // lost and the enrolled model never is. With the survival
        // policy on, its decision state rides along as a fixed suffix,
        // so a reboot resumes the same degradation posture.
        if let Some(p) = self.persist.as_mut() {
            if let Some(rt) = self.survival.as_ref() {
                p.set_survival(rt.policy.snapshot());
            }
            let stats = self.station.stats();
            p.commit(
                (stats.windows_emitted + stats.windows_salvaged) as u32,
                self.station.alerts().len() as u32,
            )?;
        }

        self.prev_ms = self.now_ms;
        self.now_ms += self.chunk_ms;
        self.station.advance_time(self.chunk_ms);
        Ok(true)
    }

    /// Replay newly resolved windows to an adaptive attacker: each
    /// window overlapping the attack interval reports whether the
    /// detector alerted, driving the attacker's threshold probe (a
    /// bisection on the blend factor). The adversary here stands in
    /// for one who observes the victim's alarm side-channel. No-op —
    /// and RNG-free — for every other attack class.
    fn pump_attacker_feedback(&mut self) {
        let Some(att) = self.attacker.as_mut() else {
            return;
        };
        if !att.wants_feedback() {
            return;
        }
        let window_ms = (self.scenario.config.window_s * 1000.0) as u64;
        let (a0, a1) = att.window_ms();
        let log = self.station.window_log();
        for &(idx, outcome) in log.iter().skip(self.feedback_cursor) {
            let w_start = idx as u64 * window_ms;
            if w_start + window_ms <= a0 || w_start >= a1 {
                continue;
            }
            if let WindowOutcome::Emitted { alerted } | WindowOutcome::Salvaged { alerted } =
                outcome
            {
                att.feedback(alerted);
            }
        }
        self.feedback_cursor = log.len();
    }

    /// One tick of the survival layer: integrate the battery model,
    /// and at 1 Hz sample the sensors (state of charge, smoothed link
    /// badness, backlog), step the policy, and actuate whatever it
    /// decided. A no-op when the scenario runs without a policy.
    fn step_survival(&mut self) -> Result<(), WiotError> {
        let Some(rt) = self.survival.as_mut() else {
            return Ok(());
        };
        let scale = u64::from(rt.policy.config().drain_scale.max(1));
        let current = rt.current_ua().saturating_mul(scale);
        rt.battery.drain(current, self.chunk_ms);
        if !self.now_ms.is_multiple_of(1000) {
            return Ok(());
        }

        let soc = rt.battery.soc_permille();
        if rt.cutoff_at_ms.is_none() && rt.policy.is_cutoff(soc) {
            rt.cutoff_at_ms = Some(self.now_ms);
        }
        if soc <= rt.policy.config().retry_tight_below_permille {
            self.fault_summary.low_battery_ticks += 1;
        }
        // Link badness: channel loss plus retransmission drag, folded
        // to permille host-side before it crosses into the integer
        // policy core.
        let loss =
            (self.links[0].channel().loss_rate() + self.links[1].channel().loss_rate()) / 2.0;
        let retransmit_rate = match (self.links[0].transport_stats(), self.links[1].transport_stats())
        {
            (Some(a), Some(b)) => {
                let sent = (a.data_sent + b.data_sent).max(1) as f64;
                (a.retransmits + b.retransmits) as f64 / sent
            }
            _ => 0.0,
        };
        let badness = LinkQuality {
            loss_rate: loss,
            retransmit_rate,
        }
        .badness_permille();
        // Backlog: windows whose time has passed but that neither
        // resolved at the station nor were duty-skipped at the source.
        let expected = self.now_ms / rt.window_ms;
        let resolved = self.station.window_log().len() as u64 + rt.duty_skipped_windows;
        let backlog = expected.saturating_sub(resolved).min(u64::from(u16::MAX)) as u16;

        let verdict = rt.policy.step(SurvivalInputs {
            soc_permille: soc,
            link_badness_permille: badness,
            backlog_windows: backlog,
        });
        rt.occupancy_ticks[version_index(rt.policy.version())] += 1;
        if verdict.is_quiescent() {
            return Ok(());
        }
        self.actuate_survival(verdict)
    }

    /// Carry out the policy's decisions: retry budget on both links,
    /// duty cycle (applied at the packet-offer gate), and — the
    /// expensive one — a detector reflash for a version switch, with
    /// the FRAM checkpoint re-reserved and re-targeted at the new
    /// build.
    fn actuate_survival(&mut self, verdict: SurvivalVerdict) -> Result<(), WiotError> {
        if let Some(action @ SurvivalAction::SetRetry {
            max_retries,
            backoff_extra_shift,
            ..
        }) = verdict.retry
        {
            for link in self.links.iter_mut() {
                link.set_retry_budget(u32::from(max_retries), u32::from(backoff_extra_shift));
            }
            if let Some(rt) = self.survival.as_mut() {
                rt.retry_reconfigs += 1;
                rt.actions.push(action);
            }
            self.station.os_mut().telemetry_mut().event(
                self.now_ms,
                EventCode::SurvivalAction,
                2,
                (u64::from(max_retries) << 8) | u64::from(backoff_extra_shift),
            );
        }
        if let Some(action @ SurvivalAction::SetDuty { skip, of, .. }) = verdict.duty {
            if let Some(rt) = self.survival.as_mut() {
                rt.actions.push(action);
            }
            self.station.os_mut().telemetry_mut().event(
                self.now_ms,
                EventCode::SurvivalAction,
                1,
                (u64::from(skip) << 8) | u64::from(of),
            );
        }
        if let Some(action @ SurvivalAction::SetVersion { to, .. }) = verdict.version {
            let Some(rt) = self.survival.as_mut() else {
                return Ok(());
            };
            let model = rt.model_for(to, &self.scenario)?;
            let app = SiftApp::new(to, model.clone(), self.scenario.config.clone())?;
            // The reflash drops the FRAM checkpoint reservation along
            // with the old image's memory map: re-charge it and point
            // subsequent commits at the new build.
            self.station.swap_detector(app)?;
            if let Some(p) = self.persist.as_mut() {
                p.reserve(&mut self.station)?;
                p.set_version(to, model)?;
            }
            if let Some(rt) = self.survival.as_mut() {
                rt.actions.push(action);
            }
            self.station.os_mut().telemetry_mut().event(
                self.now_ms,
                EventCode::SurvivalAction,
                0,
                version_index(to) as u64,
            );
        }
        Ok(())
    }

    /// A brownout power cycle: the station loses its SRAM-resident
    /// window-assembly state, and (with persistence on) the detector is
    /// rebuilt from the newest valid FRAM checkpoint — rolling back to
    /// the previous generation when the newest slot is torn or rotted,
    /// never resuming from corrupt bytes.
    fn power_cycle(&mut self) -> Result<(), WiotError> {
        self.station.reboot();
        self.fault_summary.reboots += 1;
        // The sink lives in the OS, not the rebooted app state, so it
        // survives the power cycle and can witness it.
        self.station.os_mut().telemetry_mut().event(
            self.now_ms,
            EventCode::FaultReboot,
            self.fault_summary.reboots,
            0,
        );
        if let Some(p) = self.persist.as_mut() {
            match self.survival.as_mut() {
                Some(rt) => {
                    // The checkpoint carries the survival suffix: a
                    // valid restore resyncs the policy and re-actuates
                    // the link-side knobs (the duty gate reads policy
                    // state directly; a cross-version checkpoint was
                    // already hot-swapped by the recovery itself).
                    if let Some(snap) = p.recover_survival(
                        &mut self.station,
                        &self.scenario.config,
                        &mut self.fault_summary,
                    )? {
                        rt.policy.restore(snap);
                        let (max, shift) = rt.policy.retry();
                        for link in self.links.iter_mut() {
                            link.set_retry_budget(u32::from(max), u32::from(shift));
                        }
                    }
                }
                None => {
                    p.recover(
                        &mut self.station,
                        &self.scenario.config,
                        &mut self.fault_summary,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// One drain tick: in-flight packets and pending retransmissions
    /// may still complete windows after the sensors stop. Returns
    /// `false` once the links are idle (or the drain budget is spent).
    fn step_drain(&mut self) -> Result<bool, WiotError> {
        if self.links.iter().all(Link::idle) || self.drain_ticks >= 1_000 {
            return Ok(false);
        }
        self.now_ms += self.chunk_ms;
        self.station.advance_time(self.chunk_ms);
        self.deliver_arrivals()?;
        self.drain_ticks += 1;
        Ok(true)
    }

    /// Advance the device by one chunk tick. Returns `true` while the
    /// session is still in progress, `false` once it has fully finished
    /// (sensors exhausted, links drained, station flushed).
    ///
    /// # Errors
    ///
    /// Propagates platform errors (e.g. battery exhaustion, strict
    /// watchdog stalls).
    pub fn step(&mut self) -> Result<bool, WiotError> {
        match self.phase {
            Phase::Streaming => {
                if self.step_stream()? {
                    return Ok(true);
                }
                self.phase = Phase::Draining;
                self.step()
            }
            Phase::Draining => {
                if self.step_drain()? {
                    return Ok(true);
                }
                self.station.flush()?;
                self.station.poll_watchdog(self.now_ms)?;
                self.phase = Phase::Finished;
                Ok(false)
            }
            Phase::Finished => Ok(false),
        }
    }

    /// Drive the device until [`DeviceSim::step`] reports completion.
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::step`].
    pub fn run_to_completion(&mut self) -> Result<(), WiotError> {
        while self.step()? {}
        Ok(())
    }

    /// Simulated device clock, ms.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Everything the fault plan has done so far (including checkpoint
    /// recovery counters).
    pub fn fault_summary(&self) -> FaultSummary {
        self.fault_summary
    }

    /// The device's base station (window log, stats, OS meters).
    pub fn station(&self) -> &BaseStation {
        &self.station
    }

    /// Per-window outcomes `(window index, outcome)` in window order —
    /// the verdict sequence golden traces pin.
    pub fn window_log(&self) -> &std::collections::VecDeque<(usize, WindowOutcome)> {
        self.station.window_log()
    }

    /// Drain the station's feature-uplink queue (empty unless
    /// [`DeviceOptions::feature_uplink`] was set).
    pub fn take_uplinked_features(&mut self) -> Vec<(usize, Vec<f32>)> {
        self.station.take_uplinked_features()
    }

    /// Flush the session's terminal state into the telemetry sink and
    /// snapshot it: one timestamped event per window outcome and stall
    /// alert, the channel/ARQ/fault counters (recorded exactly once,
    /// from the same final stats the report carries), and the battery
    /// gauge. `None` when the sink is disabled — the entire method is
    /// then a single branch.
    fn snapshot_telemetry(&mut self) -> Option<TelemetryReport> {
        if !self.station.os().telemetry().is_enabled() {
            return None;
        }
        let window_ms = (self.scenario.config.window_s * 1000.0) as u64;
        let log: Vec<(usize, WindowOutcome)> =
            self.station.window_log().iter().copied().collect();
        let channel =
            add_channel_stats(self.links[0].channel().stats(), self.links[1].channel().stats());
        let transport = match (self.links[0].transport_stats(), self.links[1].transport_stats()) {
            (Some(a), Some(b)) => Some(add_transport_stats(a, b)),
            _ => None,
        };
        let stalls: Vec<u64> = self
            .station
            .alerts()
            .iter()
            .filter(|a| a.app == "watchdog")
            .map(|a| a.at_ms)
            .collect();
        let battery_permille = (self
            .station
            .os()
            .meter()
            .battery_fraction_left(self.station.os().energy_model())
            * 1000.0) as i64;
        let faults = self.fault_summary;
        let survival_counts = self
            .survival
            .as_ref()
            .map(|rt| (u64::from(rt.policy.switches()), rt.retry_reconfigs));

        let tele = self.station.os_mut().telemetry_mut();
        for &(idx, outcome) in &log {
            let t = idx as u64 * window_ms;
            match outcome {
                WindowOutcome::Dropped => {
                    tele.event(t, EventCode::WindowDropped, idx as u64, 0);
                    tele.count(CounterId::WindowsDropped, 1);
                }
                WindowOutcome::Emitted { alerted } => {
                    tele.event(t, EventCode::WindowEmitted, idx as u64, u64::from(alerted));
                    tele.count(CounterId::WindowsEmitted, 1);
                    if alerted {
                        tele.count(CounterId::AlertsRaised, 1);
                    }
                }
                WindowOutcome::Salvaged { alerted } => {
                    tele.event(t, EventCode::WindowSalvaged, idx as u64, u64::from(alerted));
                    tele.count(CounterId::WindowsSalvaged, 1);
                    if alerted {
                        tele.count(CounterId::AlertsRaised, 1);
                    }
                }
            }
        }
        for &at_ms in &stalls {
            tele.event(at_ms, EventCode::StallAlert, 0, 0);
        }
        tele.count(CounterId::StallAlerts, stalls.len() as u64);
        tele.count(CounterId::PacketsSent, channel.sent);
        tele.count(CounterId::PacketsLost, channel.lost);
        tele.count(CounterId::PacketsDuplicated, channel.duplicated);
        tele.count(CounterId::PacketsReordered, channel.reordered);
        tele.count(CounterId::PacketsCorrupted, channel.corrupted);
        if let Some(t) = transport {
            tele.count(CounterId::ArqDataSent, t.data_sent);
            tele.count(CounterId::ArqRetransmits, t.retransmits);
            tele.count(CounterId::ArqNacksSent, t.nacks_sent);
            tele.count(CounterId::ArqGapRecoveries, t.gap_recoveries);
            tele.count(CounterId::ArqGiveUps, t.give_ups);
            tele.count(CounterId::ArqDuplicatesDiscarded, t.duplicates_discarded);
            tele.count(CounterId::ArqBufferEvictions, t.buffer_evictions);
        }
        tele.count(CounterId::FaultReboots, faults.reboots);
        tele.count(CounterId::FaultTornCommits, faults.torn_commits);
        tele.count(CounterId::FaultBitrotFlips, faults.bitrot_flips);
        tele.count(CounterId::FaultDropoutChunks, faults.dropout_chunks);
        tele.count(CounterId::FaultStuckChunks, faults.stuck_chunks);
        tele.count(CounterId::CheckpointRecoveries, faults.recoveries);
        tele.count(CounterId::CheckpointRollbacks, faults.rollbacks);
        if let Some((switches, retry_reconfigs)) = survival_counts {
            tele.count(CounterId::SurvivalVersionSwitches, switches);
            tele.count(CounterId::SurvivalDutySkippedChunks, faults.duty_skipped_chunks);
            tele.count(CounterId::SurvivalRetryReconfigs, retry_reconfigs);
            tele.count(CounterId::SurvivalLowBatteryTicks, faults.low_battery_ticks);
        }
        tele.gauge_set(GaugeId::BatteryPermille, battery_permille);
        self.station.os().telemetry().report()
    }

    /// Finish the session (if still running) and score it into a
    /// [`SimReport`].
    ///
    /// # Errors
    ///
    /// As [`DeviceSim::step`].
    pub fn into_report(mut self) -> Result<SimReport, WiotError> {
        self.run_to_completion()?;
        let telemetry = self.snapshot_telemetry();
        let survival = self.survival.take().map(|rt| SurvivalReport {
            version_switches: u64::from(rt.policy.switches()),
            duty_skipped_chunks: self.fault_summary.duty_skipped_chunks,
            retry_reconfigs: rt.retry_reconfigs,
            low_battery_ticks: self.fault_summary.low_battery_ticks,
            final_version: rt.policy.version(),
            final_soc_permille: rt.battery.soc_permille(),
            cutoff_at_ms: rt.cutoff_at_ms,
            occupancy_ticks: rt.occupancy_ticks,
            actions: rt.actions,
        });
        let scenario = &self.scenario;
        let station = &self.station;
        let links = &self.links;

        // Score the window log against ground truth.
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        let attack_span = scenario
            .attack
            .as_ref()
            .map(|a| (secs_to_ms(a.start_s), secs_to_ms(a.end_s)));
        let attack_class = scenario.attack.as_ref().map(|a| a.mode.class_index());
        let mut faults = self.fault_summary;
        let mut confusion = ConfusionMatrix::default();
        let mut ambiguous = 0usize;
        let mut dropped = 0usize;
        let mut latency: Option<u64> = None;
        for &(idx, outcome) in station.window_log() {
            let w_start = idx as u64 * window_ms;
            let w_end = w_start + window_ms;
            let overlap = attack_span
                .map(|(a0, a1)| {
                    let lo = w_start.max(a0);
                    let hi = w_end.min(a1);
                    hi.saturating_sub(lo) as f64 / window_ms as f64
                })
                .unwrap_or(0.0);
            let truth = if overlap >= 0.5 {
                Some(Label::Positive)
            } else if overlap == 0.0 {
                Some(Label::Negative)
            } else {
                None
            };
            match outcome {
                WindowOutcome::Dropped => dropped += 1,
                WindowOutcome::Emitted { alerted } | WindowOutcome::Salvaged { alerted } => {
                    let predicted = if alerted {
                        Label::Positive
                    } else {
                        Label::Negative
                    };
                    match truth {
                        Some(t) => {
                            confusion.record(t, predicted);
                            // Per-attack-class hit/miss ledger for the
                            // campaign engine (outside the frozen digest).
                            if t == Label::Positive {
                                if let Some(ci) = attack_class {
                                    if alerted {
                                        faults.attack_windows_tp[ci] += 1;
                                    } else {
                                        faults.attack_windows_fn[ci] += 1;
                                    }
                                }
                            }
                        }
                        None => ambiguous += 1,
                    }
                    if alerted && overlap > 0.0 && latency.is_none() {
                        if let Some((a0, _)) = attack_span {
                            latency = Some(w_end.saturating_sub(a0));
                        }
                    }
                }
            }
        }

        let mut sink = Sink::new();
        sink.archive_alerts(station.alerts());

        let stats = station.stats();
        let expected_windows = (scenario.duration_s / scenario.config.window_s)
            .floor()
            .max(1.0);
        let recovered = stats.windows_emitted + stats.windows_salvaged;
        let stall_alerts = station
            .alerts()
            .iter()
            .filter(|a| a.app == "watchdog")
            .count();

        Ok(SimReport {
            confusion,
            ambiguous_windows: ambiguous,
            dropped_windows: dropped,
            salvaged_windows: stats.windows_salvaged as usize,
            window_recovery_rate: recovered as f64 / expected_windows,
            detection_latency_ms: latency,
            channel_loss_rate: (links[0].channel().loss_rate() + links[1].channel().loss_rate())
                / 2.0,
            channel: add_channel_stats(links[0].channel().stats(), links[1].channel().stats()),
            transport: match (links[0].transport_stats(), links[1].transport_stats()) {
                (Some(a), Some(b)) => Some(add_transport_stats(a, b)),
                _ => None,
            },
            faults,
            stall_alerts,
            battery_left: station
                .os()
                .meter()
                .battery_fraction_left(station.os().energy_model()),
            telemetry,
            survival,
            sink,
        })
    }
}

/// Run `scenario` to completion on a single device.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for inconsistent parameters
/// and propagates training and platform errors.
pub fn run(scenario: &Scenario) -> Result<SimReport, WiotError> {
    DeviceSim::new(scenario)?.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultKind};

    #[test]
    fn quiet_session_has_few_false_alerts() {
        let s = Scenario::new(0, Version::Simplified, 60.0);
        let r = run(&s).unwrap();
        assert!(r.confusion.fp + r.confusion.tn == 20);
        let fp_rate = r.confusion.false_positive_rate().unwrap();
        assert!(fp_rate < 0.3, "fp rate {fp_rate}");
        assert!(r.detection_latency_ms.is_none());
        assert!(r.battery_left > 0.99);
        assert!(r.transport.is_none());
        assert_eq!(r.salvaged_windows, 0);
        assert!((r.window_recovery_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn substitution_attack_is_detected() {
        let donor = Record::synthesize(&bank()[5], 60.0, 4242);
        let mut s = Scenario::new(0, Version::Simplified, 60.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::Substitute { donor: donor.into() },
            start_s: 21.0,
            end_s: 45.0,
        });
        let r = run(&s).unwrap();
        assert!(r.confusion.tp + r.confusion.fn_ >= 7, "{:?}", r.confusion);
        let fn_rate = r.confusion.false_negative_rate().unwrap();
        assert!(fn_rate < 0.4, "fn rate {fn_rate}");
        let latency = r.detection_latency_ms.expect("attack should be seen");
        assert!(latency <= 9_000, "latency {latency} ms");
        assert!(!r.sink.alerts().is_empty());
    }

    #[test]
    fn freeze_attack_triggers_degenerate_alerts() {
        let mut s = Scenario::new(1, Version::Simplified, 30.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::Freeze,
            start_s: 9.0,
            end_s: 21.0,
        });
        let r = run(&s).unwrap();
        assert!(
            r.confusion.tp >= 3,
            "freeze should be flagged: {:?}",
            r.confusion
        );
    }

    #[test]
    fn lossy_link_degrades_gracefully() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.link.loss_prob = 0.08;
        let r = run(&s).unwrap();
        assert!(r.dropped_windows > 0);
        assert!(r.channel_loss_rate > 0.02);
        // Still scores the windows that survived.
        assert!(r.confusion.total() > 0);
        assert!(r.window_recovery_rate < 1.0);
    }

    #[test]
    fn arq_recovers_what_the_raw_link_loses() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.link.loss_prob = 0.08;
        let raw = run(&s).unwrap();
        s.arq = Some(ArqConfig::default());
        let arq = run(&s).unwrap();
        let t = arq.transport.expect("ARQ was on");
        assert!(t.retransmits > 0, "{t:?}");
        assert!(
            arq.window_recovery_rate > raw.window_recovery_rate,
            "arq {} vs raw {}",
            arq.window_recovery_rate,
            raw.window_recovery_rate
        );
    }

    #[test]
    fn fault_plan_counters_reach_the_report() {
        let mut s = Scenario::new(0, Version::Reduced, 60.0);
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 10.0,
                end_s: 15.0,
                kind: FaultKind::SensorDropout {
                    stream: Stream::Abp,
                },
            })
            .with(FaultEvent {
                start_s: 20.0,
                end_s: 25.0,
                kind: FaultKind::SensorStuck {
                    stream: Stream::Ecg,
                },
            })
            .with(FaultEvent {
                start_s: 30.0,
                end_s: 30.0,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 40.0,
                end_s: 50.0,
                kind: FaultKind::LinkDegrade {
                    stream: None,
                    loss: LossModel::Bernoulli { p: 0.8 },
                },
            });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.dropout_chunks, 10, "{:?}", r.faults);
        assert_eq!(r.faults.stuck_chunks, 10, "{:?}", r.faults);
        assert_eq!(r.faults.reboots, 1);
        assert!(r.faults.degraded_link_ms >= 9_000, "{:?}", r.faults);
        assert!(r.dropped_windows > 0, "degrade episode should cost windows");
    }

    #[test]
    fn checkpoint_recovery_survives_reboots_torn_commits_and_bit_rot() {
        let payload = sift::checkpoint::encoded_len(Version::Simplified);
        let seq = amulet_sim::nvram::CheckpointStore::commit_sequence_len(payload);
        let mut s = Scenario::new(0, Version::Simplified, 30.0);
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 9.3,
                end_s: 9.3,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 15.2,
                end_s: 15.2,
                // Mid-header cut: past the payload, before the final
                // magic — the classic detectable torn write.
                kind: FaultKind::TornCheckpoint { cut_bytes: seq - 6 },
            })
            // Bit rot then a reboot in the same tick window: the
            // corrupted slot must be detected and rolled back, never
            // resumed from.
            .with(FaultEvent {
                start_s: 20.6,
                end_s: 20.6,
                kind: FaultKind::CheckpointBitRot { byte: 40, bit: 2 },
            })
            .with(FaultEvent {
                start_s: 20.7,
                end_s: 20.7,
                kind: FaultKind::DeviceReboot,
            });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.reboots, 3, "{:?}", r.faults);
        assert_eq!(r.faults.torn_commits, 1);
        assert_eq!(r.faults.bitrot_flips, 1);
        assert_eq!(r.faults.recoveries, 3, "{:?}", r.faults);
        assert_eq!(r.faults.recovery_failures, 0, "{:?}", r.faults);
        assert!(r.faults.rollbacks >= 1, "{:?}", r.faults);
        // Detection kept working across all three power cycles.
        assert!(r.confusion.total() > 0);
    }

    #[test]
    fn no_persist_reboots_without_recovery() {
        let mut s = Scenario::new(0, Version::Simplified, 30.0);
        s.persist = false;
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 9.3,
            end_s: 9.3,
            kind: FaultKind::DeviceReboot,
        });
        let r = run(&s).unwrap();
        assert_eq!(r.faults.reboots, 1);
        assert_eq!(r.faults.recoveries, 0);
        assert_eq!(r.faults.torn_commits, 0);
    }

    #[test]
    fn persistence_is_behaviorally_invisible_without_faults() {
        // The checkpoint engine must not perturb detection: same seed,
        // persist on vs off, identical verdict sequence and battery.
        let mut s = Scenario::new(2, Version::Reduced, 30.0);
        let with = run(&s).unwrap();
        s.persist = false;
        let without = run(&s).unwrap();
        assert_eq!(with.confusion, without.confusion);
        assert_eq!(with.dropped_windows, without.dropped_windows);
        assert_eq!(
            with.battery_left.to_bits(),
            without.battery_left.to_bits(),
            "commits must charge no energy"
        );
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let mut s = Scenario::new(99, Version::Original, 10.0);
        assert!(run(&s).is_err());
        s = Scenario::new(0, Version::Original, 10.0);
        s.attack = Some(AttackSpec {
            mode: AttackMode::Freeze,
            start_s: 5.0,
            end_s: 3.0,
        });
        assert!(run(&s).is_err());
        s = Scenario::new(0, Version::Original, 10.0);
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 50.0,
            end_s: 60.0,
            kind: FaultKind::DeviceReboot,
        });
        assert!(run(&s).is_err(), "fault outside the session");
    }

    #[test]
    fn bad_attack_windows_are_rejected_not_panicking() {
        // A session duration that is infinite (beat synthesis would
        // never end), NaN or non-positive (an empty session) is an
        // error before any training or synthesis.
        for duration_s in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -5.0] {
            let s = Scenario::new(0, Version::Original, duration_s);
            assert!(
                matches!(DeviceSim::new(&s), Err(WiotError::InvalidScenario { .. })),
                "duration {duration_s} accepted"
            );
        }
        // NaN and infinite ends, a window empty once truncated to whole
        // milliseconds, and a negative start are errors, never the
        // attacker's non-empty-window assertion or a silent clamp to 0.
        for (start_s, end_s) in [
            (5.0, f64::NAN),
            (f64::NAN, 5.0),
            (5.0, f64::INFINITY),
            (f64::NEG_INFINITY, 5.0),
            (1.0, 1.0004),
            (-1.0, 5.0),
        ] {
            let mut s = Scenario::new(0, Version::Original, 10.0);
            s.attack = Some(AttackSpec {
                mode: AttackMode::Freeze,
                start_s,
                end_s,
            });
            assert!(
                matches!(DeviceSim::new(&s), Err(WiotError::InvalidScenario { .. })),
                "window {start_s}..{end_s} accepted"
            );
        }
    }

    #[test]
    fn telemetry_is_behaviorally_invisible_and_captures_the_session() {
        // Same seed, sink on vs off: identical verdicts, identical
        // battery bits — and the traced run's counters agree with the
        // report's own numbers.
        let mut s = Scenario::new(0, Version::Reduced, 30.0);
        s.link.loss_prob = 0.08;
        s.faults = FaultPlan::new().with(FaultEvent {
            start_s: 9.3,
            end_s: 9.3,
            kind: FaultKind::DeviceReboot,
        });
        let plain = run(&s).unwrap();
        let traced = DeviceSim::with_options(
            &s,
            DeviceOptions {
                telemetry: true,
                ..DeviceOptions::default()
            },
        )
        .unwrap()
        .into_report()
        .unwrap();
        assert_eq!(plain.confusion, traced.confusion);
        assert_eq!(plain.dropped_windows, traced.dropped_windows);
        assert_eq!(
            plain.battery_left.to_bits(),
            traced.battery_left.to_bits(),
            "telemetry must charge no energy"
        );
        assert!(plain.telemetry.is_none());
        let report = traced.telemetry.expect("sink was enabled");
        assert_eq!(report.counter(CounterId::FaultReboots), traced.faults.reboots);
        assert_eq!(report.counter(CounterId::PacketsSent), traced.channel.sent);
        assert_eq!(
            report.counter(CounterId::WindowsDropped) as usize,
            traced.dropped_windows
        );
        assert!(report
            .events
            .iter()
            .any(|e| e.code == EventCode::FaultReboot));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e.code, EventCode::WindowEmitted | EventCode::WindowDropped)));
    }

    #[test]
    fn deterministic_runs() {
        let s = Scenario::new(2, Version::Reduced, 30.0);
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.dropped_windows, b.dropped_windows);
    }

    #[test]
    fn quiescent_survival_policy_is_behaviorally_invisible() {
        // At full battery on a clean link the policy never actuates, so
        // a policy-enabled run must be bit-identical to a policy-off
        // run: same verdicts, same battery bits.
        let mut s = Scenario::new(2, Version::Reduced, 30.0);
        let off = run(&s).unwrap();
        s.survival = Some(SurvivalConfig::default());
        let on = run(&s).unwrap();
        assert_eq!(off.confusion, on.confusion);
        assert_eq!(off.dropped_windows, on.dropped_windows);
        assert_eq!(
            off.battery_left.to_bits(),
            on.battery_left.to_bits(),
            "a quiescent policy must charge no energy"
        );
        let sr = on.survival.expect("policy was on");
        assert!(sr.actions.is_empty(), "{:?}", sr.actions);
        assert_eq!(sr.version_switches, 0);
        assert_eq!(sr.final_version, Version::Reduced);
        assert_eq!(sr.duty_skipped_chunks, 0);
        // 30 s of real-time drain truncates at most one permille.
        assert!(sr.final_soc_permille >= 999);
        assert!(off.survival.is_none());
    }

    #[test]
    fn survival_policy_degrades_down_the_ladder_under_accelerated_drain() {
        // Scale the modeled drain so a 60 s session traverses the whole
        // discharge curve: the policy must walk Original → Simplified →
        // Reduced, thin the duty cycle, tighten the retry budget, and
        // stamp the battery cutoff.
        let mut s = Scenario::new(0, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
            ..SurvivalConfig::default()
        });
        let r = run(&s).unwrap();
        let sr = r.survival.expect("policy was on");
        assert!(sr.version_switches >= 2, "{:?}", sr.actions);
        assert_eq!(sr.final_version, Version::Reduced);
        assert!(sr.duty_skipped_chunks > 0);
        assert_eq!(r.faults.duty_skipped_chunks, sr.duty_skipped_chunks);
        assert!(sr.retry_reconfigs >= 1);
        assert!(sr.low_battery_ticks > 0);
        assert_eq!(r.faults.low_battery_ticks, sr.low_battery_ticks);
        assert!(sr.cutoff_at_ms.is_some(), "soc {} ‰", sr.final_soc_permille);
        // Time was spent in every rung of the ladder.
        assert!(sr.occupancy_ticks.iter().all(|&t| t > 0), "{:?}", sr.occupancy_ticks);
        // Detection kept working right through both reflashes.
        assert!(r.confusion.total() > 0);
    }

    #[test]
    fn survival_policy_survives_brownouts_and_stays_deterministic() {
        // Brownout reboots mid-degradation: the policy state must come
        // back from the FRAM checkpoint (not reset to full power), and
        // the whole faulted run must replay byte-identically.
        let mut s = Scenario::new(1, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
            ..SurvivalConfig::default()
        });
        s.faults = FaultPlan::new()
            .with(FaultEvent {
                start_s: 21.3,
                end_s: 21.3,
                kind: FaultKind::DeviceReboot,
            })
            .with(FaultEvent {
                start_s: 40.6,
                end_s: 40.6,
                kind: FaultKind::DeviceReboot,
            });
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.faults.reboots, 2);
        assert_eq!(a.faults.recoveries, 2, "{:?}", a.faults);
        assert_eq!(a.faults.recovery_failures, 0, "{:?}", a.faults);
        let sa = a.survival.as_ref().expect("policy was on");
        let sb = b.survival.as_ref().expect("policy was on");
        assert_eq!(sa, sb, "policy decisions must replay identically");
        assert_eq!(a.confusion, b.confusion);
        // Degradation was not undone by the reboots.
        assert_eq!(sa.final_version, Version::Reduced);
        assert!(sa.version_switches >= 2);
    }

    #[test]
    fn survival_telemetry_counters_capture_the_session() {
        let mut s = Scenario::new(0, Version::Original, 60.0).with_reliability();
        s.survival = Some(SurvivalConfig {
            min_dwell_ticks: 5,
            drain_scale: 60_000,
            ..SurvivalConfig::default()
        });
        let traced = DeviceSim::with_options(
            &s,
            DeviceOptions {
                telemetry: true,
                ..DeviceOptions::default()
            },
        )
        .unwrap()
        .into_report()
        .unwrap();
        let sr = traced.survival.as_ref().expect("policy was on");
        let tele = traced.telemetry.as_ref().expect("sink was on");
        assert_eq!(
            tele.counter(CounterId::SurvivalVersionSwitches),
            sr.version_switches
        );
        assert_eq!(
            tele.counter(CounterId::SurvivalDutySkippedChunks),
            sr.duty_skipped_chunks
        );
        assert_eq!(
            tele.counter(CounterId::SurvivalRetryReconfigs),
            sr.retry_reconfigs
        );
        assert_eq!(
            tele.counter(CounterId::SurvivalLowBatteryTicks),
            sr.low_battery_ticks
        );
        // Every actuation left a tick-stamped event in the ring.
        let actuations = tele
            .events
            .iter()
            .filter(|e| e.code == EventCode::SurvivalAction)
            .count();
        assert_eq!(actuations, sr.actions.len());
    }
}
