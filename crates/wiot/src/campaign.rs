//! Adversary campaign engine: population-scale, multi-wave attack
//! evaluation with per-attack-class detection matrices.
//!
//! The paper's Table II evaluates one adversary (ECG substitution)
//! against twelve subjects. This module generalizes that experiment in
//! both directions at once:
//!
//! * **Population scale** — victims come from the seeded
//!   population generator (`physio_sim::population`), so a campaign
//!   can wear thousands of distinct subjects instead of the legacy
//!   twelve, and
//! * **Attack breadth** — a [`CampaignPlan`] schedules waves of
//!   [`AttackClass`]es (the four legacy vulnerability classes plus
//!   mimicry, replay-at-SNR, partial-window injection, coordinated
//!   substitution, and an adaptive threshold-probing adversary) across
//!   a device fleet, and the per-class hit/miss ledger
//!   ([`crate::faults::FaultSummary::attack_windows_tp`]) rolls up
//!   into a detection matrix with Wilson confidence bounds.
//!
//! Everything runs through the fleet engine's provisioning seam
//! ([`crate::fleet::FleetProvisioner`]), so the determinism guarantee
//! is inherited: one campaign seed produces a byte-identical
//! [`CampaignReport`] (same [`CampaignReport::digest`]) at any worker
//! thread count. The per-class counters ride **outside** the frozen
//! fleet digest, which therefore stays compatible with every golden
//! trace.
//!
//! Confidence bounds are computed in pure integer arithmetic
//! ([`wilson_permille`]) — the same fixed-point discipline as the
//! on-device policy code, and digest-safe by construction.

use crate::attacker::{
    attack_window_ms, ecg_read_span, AttackMode, ATTACK_CLASS_COUNT, ATTACK_CLASS_NAMES,
};
use crate::channel::LossModel;
use crate::fleet::{
    device_seed, ordered_fold, run_fleet_provisioned, DeviceProvision, FleetProvisioner,
    FleetReport, FleetSpec,
};
use crate::scenario::{check_duration, secs_to_ms, AttackSpec, Scenario};
use crate::WiotError;
use ml::BackendKind;
use ml::DetectorModel;
use physio_sim::population::{nearest_neighbor, population};
use physio_sim::record::{EcgSpan, Record};
use physio_sim::subject::Subject;
use physio_sim::SAMPLE_RATE_HZ;
use sift::features::Version;
use sift::zoo::train_backend;

/// One attack class the campaign engine can stage. The first four are
/// the paper's legacy vulnerability classes (§I), folded in from
/// [`AttackMode`] behind the compatibility constructors below; the
/// rest are campaign-only adversaries.
///
/// A class is a *template*: it carries the class parameters but no
/// recordings. [`AttackClass::materialize`] binds it to a concrete
/// victim session and donor recording, yielding the [`AttackMode`] the
/// device's attacker runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackClass {
    /// Channel compromise: wholesale ECG substitution (Table II).
    Substitution,
    /// Firmware compromise: replay the victim's own ECG from
    /// `offset_s` seconds earlier.
    Replay {
        /// How far back the replayed data comes from, seconds.
        offset_s: f64,
    },
    /// Physical compromise: the sensor freezes at its last value.
    Freeze,
    /// Sensory-channel injection: additive EMI-style interference.
    NoiseInject {
        /// Injected amplitude, millivolts.
        amplitude_mv: f64,
    },
    /// Mimicry: blend a morphology-fitted donor into the victim's ECG
    /// at a fixed ratio (the campaign picks the population's nearest
    /// morphology neighbor as donor).
    Mimicry {
        /// Donor share of the blend, ‰.
        blend_permille: u16,
    },
    /// Replay through a noisy analog capture at a parameterized SNR.
    ReplaySnr {
        /// How far back the replayed data comes from, seconds.
        offset_s: f64,
        /// Replay signal-to-noise ratio, dB.
        snr_db: f64,
    },
    /// Substitution over only the leading fraction of each detection
    /// window.
    PartialWindow {
        /// Tampered fraction of each window, ‰.
        coverage_permille: u16,
    },
    /// Wave-synchronized substitution: every device in the wave
    /// injects the *same* donor while the wave rides a Gilbert–Elliott
    /// burst-loss channel with the reliability stack on.
    Coordinated,
    /// Adaptive threshold probe: bisects its blend factor against
    /// alert feedback, converging on the detector's decision boundary.
    Adaptive,
}

impl AttackClass {
    /// Compatibility constructor for [`AttackMode::Substitute`].
    pub fn substitution() -> Self {
        AttackClass::Substitution
    }

    /// Compatibility constructor for [`AttackMode::Replay`].
    pub fn replay(offset_s: f64) -> Self {
        AttackClass::Replay { offset_s }
    }

    /// Compatibility constructor for [`AttackMode::Freeze`].
    pub fn freeze() -> Self {
        AttackClass::Freeze
    }

    /// Compatibility constructor for [`AttackMode::NoiseInject`].
    pub fn noise_inject(amplitude_mv: f64) -> Self {
        AttackClass::NoiseInject { amplitude_mv }
    }

    /// Stable class index, `0..ATTACK_CLASS_COUNT`. Matches
    /// [`AttackMode::class_index`] of the materialized mode, which is
    /// what the per-class scoring ledger keys on.
    pub fn index(&self) -> usize {
        match self {
            AttackClass::Substitution => 0,
            AttackClass::Replay { .. } => 1,
            AttackClass::Freeze => 2,
            AttackClass::NoiseInject { .. } => 3,
            AttackClass::Mimicry { .. } => 4,
            AttackClass::ReplaySnr { .. } => 5,
            AttackClass::PartialWindow { .. } => 6,
            AttackClass::Coordinated => 7,
            AttackClass::Adaptive => 8,
        }
    }

    /// Short stable name (same table as the attacker's).
    pub fn name(&self) -> &'static str {
        ATTACK_CLASS_NAMES[self.index()]
    }

    /// How far back a replay class replays, seconds (`None` for the
    /// other classes).
    fn replay_offset_s(&self) -> Option<f64> {
        match *self {
            AttackClass::Replay { offset_s } | AttackClass::ReplaySnr { offset_s, .. } => {
                Some(offset_s)
            }
            _ => None,
        }
    }

    /// Whether the class wants a morphology-fitted donor (the
    /// population's nearest neighbor) rather than an arbitrary one.
    fn wants_fitted_donor(&self) -> bool {
        matches!(
            self,
            AttackClass::Mimicry { .. } | AttackClass::Adaptive
        )
    }

    /// Bind the class template to a concrete session: `victim_live` is
    /// the victim's own live recording (replay source), `donor` the
    /// foreign recording, `window_ms` the detection-window length. The
    /// mode gets each record whole (`EcgSpan::from`).
    ///
    /// The legacy four produce byte-identical [`AttackMode`] values to
    /// direct construction, so golden traces are unaffected by routing
    /// through the taxonomy. A thin wrapper over
    /// [`AttackClass::materialize_with`].
    pub fn materialize(
        &self,
        victim_live: &Record,
        donor: &Record,
        window_ms: u64,
    ) -> AttackMode {
        self.materialize_with(
            || victim_live.clone().into(),
            || donor.clone().into(),
            window_ms,
        )
    }

    /// [`AttackClass::materialize`] with the recordings supplied on
    /// demand: each closure runs at most once, and only if the class
    /// consumes that recording. Freeze and NoiseInject call neither,
    /// Replay and ReplaySnr call only `victim_live`, and the five donor
    /// classes call only `donor` — so a caller that synthesizes inside
    /// the closures renders exactly the records the attack needs, and
    /// may render only the span of them the attack reads.
    pub fn materialize_with(
        &self,
        victim_live: impl FnOnce() -> EcgSpan,
        donor: impl FnOnce() -> EcgSpan,
        window_ms: u64,
    ) -> AttackMode {
        match *self {
            AttackClass::Substitution => AttackMode::Substitute { donor: donor() },
            AttackClass::Replay { offset_s } => AttackMode::Replay {
                offset_s,
                source: victim_live(),
            },
            AttackClass::Freeze => AttackMode::Freeze,
            AttackClass::NoiseInject { amplitude_mv } => AttackMode::NoiseInject { amplitude_mv },
            AttackClass::Mimicry { blend_permille } => AttackMode::Mimicry {
                donor: donor(),
                blend_permille,
            },
            AttackClass::ReplaySnr { offset_s, snr_db } => AttackMode::ReplaySnr {
                offset_s,
                source: victim_live(),
                snr_db,
            },
            AttackClass::PartialWindow { coverage_permille } => AttackMode::PartialWindow {
                donor: donor(),
                window_ms,
                coverage_permille,
            },
            AttackClass::Coordinated => AttackMode::Coordinated { donor: donor() },
            AttackClass::Adaptive => AttackMode::Adaptive { donor: donor() },
        }
    }
}

/// One wave of a campaign: `devices` devices all running `class`
/// during `[start_s, end_s)` of their sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackWave {
    /// What the wave's adversaries do.
    pub class: AttackClass,
    /// Devices in the wave.
    pub devices: usize,
    /// Attack start, seconds into each session.
    pub start_s: f64,
    /// Attack end, seconds into each session.
    pub end_s: f64,
}

/// A full campaign: a population, a victim pool drawn from it, and a
/// schedule of attack waves across a device fleet.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Subjects sampled by the population generator.
    pub population_size: usize,
    /// Population seed (`physio_sim::population::LEGACY_BANK_SEED`
    /// reproduces the legacy bank for `population_size == 12`).
    pub population_seed: u64,
    /// Distinct victims drawn (evenly spaced) from the population;
    /// devices round-robin over the pool. Each pool victim costs one
    /// model enrollment, so this bounds campaign training time
    /// independently of `population_size`.
    pub victim_pool: usize,
    /// Donor subjects enrolled against each pool victim (the
    /// training counterexamples; the legacy bank uses all 11 others).
    pub donors_per_victim: usize,
    /// Campaign master seed (drives per-device seeds via
    /// [`device_seed`] and all donor selection).
    pub seed: u64,
    /// Worker threads for the fleet engine.
    pub threads: usize,
    /// Detector backend deployed fleet-wide.
    pub backend: BackendKind,
    /// Detector version deployed fleet-wide.
    pub version: Version,
    /// Session length per device, seconds.
    pub duration_s: f64,
    /// The attack schedule. Wave `w` owns the next `waves[w].devices`
    /// device indices after wave `w-1`.
    pub waves: Vec<AttackWave>,
}

impl CampaignPlan {
    /// Total devices across all waves.
    pub fn devices(&self) -> usize {
        self.waves.iter().map(|w| w.devices).sum()
    }

    /// Which wave owns `device`, by the cumulative schedule.
    fn wave_of(&self, device: usize) -> Option<&AttackWave> {
        let mut off = 0usize;
        self.waves.iter().find(|w| {
            let hit = device < off + w.devices;
            off += w.devices;
            hit
        })
    }
}

/// Detection outcome of one attack class over the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassOutcome {
    /// Devices that ran this class.
    pub devices: usize,
    /// Attacked windows the detector flagged (true positives).
    pub windows_tp: u64,
    /// Attacked windows the detector missed (false negatives).
    pub windows_fn: u64,
    /// Genuine windows falsely flagged on this class's devices.
    pub windows_fp: usize,
    /// Genuine windows correctly passed on this class's devices.
    pub windows_tn: usize,
    /// Devices whose attack produced at least one alert.
    pub detected_devices: usize,
    /// Sum of detection latencies over detecting devices, ms.
    pub latency_sum_ms: u64,
    /// Window-level detection rate, ‰ (`tp / (tp + fn)`).
    pub detection_permille: u16,
    /// Wilson 95 % lower bound on the detection rate, ‰.
    pub wilson_lo_permille: u16,
    /// Wilson 95 % upper bound on the detection rate, ‰.
    pub wilson_hi_permille: u16,
}

/// Aggregate result of a campaign: the fleet report plus the
/// per-attack-class detection matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Population the victims were drawn from.
    pub population_size: usize,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-class outcomes, indexed by [`AttackClass::index`]. Classes
    /// the plan never staged are all-zero.
    pub classes: [ClassOutcome; ATTACK_CLASS_COUNT],
    /// The underlying fleet report (its digest is the frozen one).
    pub fleet: FleetReport,
}

impl CampaignReport {
    /// 64-bit digest over the frozen fleet digest **and** the
    /// per-class matrix: FNV-1a over the integer fields in class-index
    /// order. Byte-identical across thread counts; the campaign bench
    /// gate pins it.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(self.fleet.digest());
        fold(self.population_size as u64);
        fold(self.seed);
        for c in &self.classes {
            fold(c.devices as u64);
            fold(c.windows_tp);
            fold(c.windows_fn);
            fold(c.windows_fp as u64);
            fold(c.windows_tn as u64);
            fold(c.detected_devices as u64);
            fold(c.latency_sum_ms);
            fold(u64::from(c.detection_permille));
            fold(u64::from(c.wilson_lo_permille));
            fold(u64::from(c.wilson_hi_permille));
        }
        h
    }
}

/// Integer square root of a `u128` (Newton's method, exact floor).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = 1u128 << (v.ilog2() / 2 + 1);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Wilson 95 % score interval for `successes / trials`, in permille,
/// computed entirely in integer arithmetic (z = 1.96 carried as
/// z²·10⁶ = 3 841 600). Returns `(lo, hi)` with `lo` floored and `hi`
/// ceiled, so the true interval is always contained. `(0, 1000)` for
/// zero trials.
pub fn wilson_permille(successes: u64, trials: u64) -> (u16, u16) {
    if trials == 0 {
        return (0, 1000);
    }
    let s = u128::from(successes.min(trials));
    let n = u128::from(trials);
    // z²·10⁶ for z = 1.96.
    const Z2: u128 = 3_841_600;
    let d = 1_000_000 * n + Z2;
    let c = 1_000_000 * s + Z2 / 2;
    // (10⁶·half·n·d)² = 10¹²·Z2·s·(n−s)·n + Z2²·n²/4, pre-scaled so
    // the ±1000·√(...) below lands directly in permille numerators.
    let rad = 1_000_000_000_000u128 * Z2 * s * (n - s) * n + 250_000 * Z2 * Z2 * n * n;
    let r = isqrt_u128(rad);
    let scale = n * d;
    let center = 1000 * c * n;
    let lo = (center.saturating_sub(r) / scale) as u16;
    let hi = ((center + r).div_ceil(scale)).min(1000) as u16;
    (lo, hi)
}

/// The campaign's provisioning policy: victims from the population
/// pool, per-class donors, per-wave attack specs, and the hostile
/// channel for coordinated waves.
struct CampaignProvisioner<'c> {
    plan: &'c CampaignPlan,
    subjects: &'c [Subject],
    /// Population indices of the victim pool.
    pool: &'c [usize],
    /// One deployed model per pool slot.
    models: &'c [DetectorModel],
}

impl CampaignProvisioner<'_> {
    /// Deterministic donor *population index* for `device`'s victim:
    /// morphology-fitted (nearest neighbor) for classes that want it,
    /// otherwise a seed-split other subject; coordinated waves share
    /// one donor across the wave so the substitution is synchronized.
    fn donor_index(&self, class: &AttackClass, victim: usize, scenario_seed: u64) -> usize {
        let n = self.subjects.len();
        if n == 1 {
            return 0;
        }
        if class.wants_fitted_donor() {
            if let Some(j) = nearest_neighbor(self.subjects, victim) {
                return j;
            }
        }
        let draw = if matches!(class, AttackClass::Coordinated) {
            // Wave-shared: a function of the campaign seed and class
            // only, so every device in the wave injects the same donor.
            crate::fleet::device_seed(self.plan.seed ^ 0xC0_0D, class.index())
        } else {
            crate::fleet::device_seed(scenario_seed ^ 0xD0_40, 0)
        };
        let off = 1 + (draw % (n as u64 - 1)) as usize;
        (victim + off) % n
    }
}

impl FleetProvisioner for CampaignProvisioner<'_> {
    fn provision(
        &self,
        spec: &FleetSpec,
        device: usize,
    ) -> Result<DeviceProvision<'_>, WiotError> {
        let wave = self
            .plan
            .wave_of(device)
            .ok_or(WiotError::InvalidScenario {
                reason: "device index outside the campaign schedule",
            })?;
        let pool_slot = device % self.pool.len();
        let victim = self.pool[pool_slot];

        let mut scenario = spec.template.clone();
        scenario.victim = victim;
        scenario.seed = device_seed(spec.seed, device);

        let victim_subject = &self.subjects[victim];
        let attack_ms = attack_window_ms(wave.start_s, wave.end_s, scenario.duration_s)?;
        // The donor index is drawn only for donor classes.
        let mode = cut_attack_mode(&wave.class, attack_ms, &scenario, victim_subject, || {
            &self.subjects[self.donor_index(&wave.class, victim, scenario.seed)]
        });
        scenario.attack = Some(AttackSpec {
            mode,
            start_s: wave.start_s,
            end_s: wave.end_s,
        });
        if matches!(wave.class, AttackClass::Coordinated) {
            // Coordinated waves ride a bursty channel with the
            // reliability stack on — the multi-device substitution is
            // timed to hide inside burst-loss recovery traffic.
            scenario.link.loss = Some(LossModel::GilbertElliott {
                p_good_to_bad: 0.025,
                p_bad_to_good: 0.2,
                loss_good: 0.01,
                loss_bad: 0.8,
            });
            scenario = scenario.with_reliability();
        }

        Ok(DeviceProvision {
            scenario,
            subject: Some(victim_subject),
            model: None,
            deployed: &self.models[pool_slot],
        })
    }
}

/// The attack a device of `class` runs over `scenario`'s session when
/// attacked during `attack_ms`. Only the records the class consumes are
/// synthesized, and only over the ECG span the attacker reads of them
/// (DESIGN.md §16). The victim's live session uses the same seed split
/// the device itself uses, so a replay source really is the session
/// under attack; `donor` runs only for the donor classes.
fn cut_attack_mode<'s>(
    class: &AttackClass,
    attack_ms: (u64, u64),
    scenario: &Scenario,
    victim: &Subject,
    donor: impl FnOnce() -> &'s Subject,
) -> AttackMode {
    let (duration_s, seed) = (scenario.duration_s, scenario.seed);
    // The session's sample count, as `Record::synthesize` renders it.
    let session_len = (duration_s * SAMPLE_RATE_HZ).round() as usize;
    let read_span = |replay_offset_s| {
        ecg_read_span(
            attack_ms,
            scenario.chunk_s,
            SAMPLE_RATE_HZ,
            session_len,
            replay_offset_s,
        )
    };
    class.materialize_with(
        || {
            let span = read_span(class.replay_offset_s());
            Record::synthesize_ecg_span(victim, duration_s, seed ^ 0x11FE, span)
        },
        || Record::synthesize_ecg_span(donor(), duration_s, seed ^ 0xD00D, read_span(None)),
        secs_to_ms(scenario.config.window_s),
    )
}

/// Enroll one pool victim: synthesize its training record and
/// `donors_per_victim` donor records (the population neighbours after
/// it, seed-split from the victim's training seed) and train the
/// plan's backend on them.
fn enroll_victim(
    plan: &CampaignPlan,
    subjects: &[Subject],
    victim: usize,
    template: &Scenario,
) -> Result<DetectorModel, WiotError> {
    let n = subjects.len();
    let train_seed = device_seed(plan.seed ^ 0x7EA1, victim);
    let victim_rec = Record::synthesize(&subjects[victim], template.config.train_s, train_seed);
    let donor_recs: Vec<Record> = (0..plan.donors_per_victim)
        .map(|j| {
            Record::synthesize(
                &subjects[(victim + 1 + j) % n],
                template.config.train_s,
                device_seed(train_seed, j + 1),
            )
        })
        .collect();
    let donor_refs: Vec<&Record> = donor_recs.iter().collect();
    Ok(train_backend(
        &victim_rec,
        &donor_refs,
        plan.version,
        plan.backend,
        &template.config,
    )?)
}

/// Run a campaign end to end: sample the population, enroll the victim
/// pool, drive the fleet through the provisioning seam, and roll the
/// per-class ledger up into the detection matrix.
///
/// # Errors
///
/// Returns [`WiotError::InvalidScenario`] for an inconsistent plan and
/// propagates training and simulation errors.
pub fn run_campaign(plan: &CampaignPlan) -> Result<CampaignReport, WiotError> {
    if plan.population_size == 0 {
        return Err(WiotError::InvalidScenario {
            reason: "campaign population must be non-empty",
        });
    }
    if plan.victim_pool == 0 || plan.victim_pool > plan.population_size {
        return Err(WiotError::InvalidScenario {
            reason: "victim pool must be 1..=population size",
        });
    }
    if plan.donors_per_victim == 0 || plan.donors_per_victim >= plan.population_size {
        return Err(WiotError::InvalidScenario {
            reason: "donors per victim must be 1..population size",
        });
    }
    if plan.waves.is_empty() || plan.waves.iter().any(|w| w.devices == 0) {
        return Err(WiotError::InvalidScenario {
            reason: "campaign needs at least one non-empty wave",
        });
    }
    check_duration(plan.duration_s)?;
    for w in &plan.waves {
        attack_window_ms(w.start_s, w.end_s, plan.duration_s)?;
    }

    let subjects = population(plan.population_size, plan.population_seed);
    let template = {
        let mut t = Scenario::new(0, plan.version, plan.duration_s);
        t.backend = plan.backend;
        t
    };

    // Victim pool: evenly spaced over the population (distinct because
    // pool ≤ population), then one model enrollment per pool victim
    // against seed-split donor records, fanned out over the plan's
    // worker threads. Enrollment cost scales with the pool, not the
    // population, and the models come back in pool order.
    let pool: Vec<usize> = (0..plan.victim_pool)
        .map(|i| i * plan.population_size / plan.victim_pool)
        .collect();
    let mut models = Vec::with_capacity(pool.len());
    ordered_fold(
        pool.len(),
        plan.threads,
        |slot| enroll_victim(plan, &subjects, pool[slot], &template),
        |model| models.push(model),
    )?;

    let spec = FleetSpec {
        devices: plan.devices(),
        threads: plan.threads,
        seed: plan.seed,
        telemetry: false,
        template,
    };
    let prov = CampaignProvisioner {
        plan,
        subjects: &subjects,
        pool: &pool,
        models: &models,
    };
    let fleet = run_fleet_provisioned(&spec, &prov)?;

    // Per-class rollup. Window-level TP/FN come straight from the
    // merged fault ledger; the per-device figures (FP/TN, detections,
    // latency) are re-keyed from device index to class via the wave
    // schedule.
    let mut classes = [ClassOutcome::default(); ATTACK_CLASS_COUNT];
    for (ci, c) in classes.iter_mut().enumerate() {
        c.windows_tp = fleet.faults.attack_windows_tp[ci];
        c.windows_fn = fleet.faults.attack_windows_fn[ci];
    }
    for d in &fleet.per_device {
        let Some(wave) = plan.wave_of(d.device) else {
            continue;
        };
        let c = &mut classes[wave.class.index()];
        c.devices += 1;
        c.windows_fp += d.confusion.fp;
        c.windows_tn += d.confusion.tn;
        if let Some(ms) = d.detection_latency_ms {
            c.detected_devices += 1;
            c.latency_sum_ms += ms;
        }
    }
    for c in classes.iter_mut() {
        let total = c.windows_tp + c.windows_fn;
        c.detection_permille = (c.windows_tp * 1000)
            .checked_div(total)
            .unwrap_or(0) as u16;
        let (lo, hi) = if total == 0 {
            (0, 0)
        } else {
            wilson_permille(c.windows_tp, total)
        };
        c.wilson_lo_permille = lo;
        c.wilson_hi_permille = hi;
    }

    Ok(CampaignReport {
        population_size: plan.population_size,
        seed: plan.seed,
        classes,
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::Attacker;
    use crate::device::{SensorDevice, SensorPacket};
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn wilson_interval_matches_known_values() {
        // s=50, n=100: Wilson 95 % ≈ [0.404, 0.596].
        let (lo, hi) = wilson_permille(50, 100);
        assert!((400..=405).contains(&lo), "lo {lo}");
        assert!((595..=600).contains(&hi), "hi {hi}");
        // Degenerate cases.
        assert_eq!(wilson_permille(0, 0), (0, 1000));
        let (lo, hi) = wilson_permille(0, 10);
        assert_eq!(lo, 0);
        assert!(hi < 350, "hi {hi}");
        let (lo, hi) = wilson_permille(10, 10);
        assert_eq!(hi, 1000);
        assert!(lo > 650, "lo {lo}");
        // Interval tightens with trials at fixed rate.
        let (a_lo, a_hi) = wilson_permille(80, 100);
        let (b_lo, b_hi) = wilson_permille(800, 1000);
        assert!(b_hi - b_lo < a_hi - a_lo);
        // Bounds always bracket the point estimate.
        for (s, n) in [(1u64, 3u64), (7, 9), (123, 456), (999, 1000)] {
            let (lo, hi) = wilson_permille(s, n);
            let p = (s * 1000 / n) as u16;
            assert!(lo <= p && p <= hi, "({s},{n}) -> ({lo},{hi}) vs {p}");
        }
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for v in [0u128, 1, 2, 3, 4, 15, 16, 17, 1 << 40, (1 << 60) + 123] {
            let r = isqrt_u128(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }

    /// One instance of every class, in index order.
    fn all_classes() -> [AttackClass; ATTACK_CLASS_COUNT] {
        [
            AttackClass::Substitution,
            AttackClass::Replay { offset_s: 1.0 },
            AttackClass::Freeze,
            AttackClass::NoiseInject { amplitude_mv: 0.5 },
            AttackClass::Mimicry { blend_permille: 500 },
            AttackClass::ReplaySnr {
                offset_s: 1.0,
                snr_db: 6.0,
            },
            AttackClass::PartialWindow {
                coverage_permille: 400,
            },
            AttackClass::Coordinated,
            AttackClass::Adaptive,
        ]
    }

    fn live_and_donor() -> (Record, Record) {
        (
            Record::synthesize(&physio_sim::subject::bank()[0], 2.0, 8),
            Record::synthesize(&physio_sim::subject::bank()[1], 2.0, 9),
        )
    }

    #[test]
    fn class_indices_align_with_attack_modes() {
        let (live, donor) = live_and_donor();
        for (i, class) in all_classes().iter().enumerate() {
            assert_eq!(class.index(), i);
            let mode = class.materialize(&live, &donor, 8000);
            assert_eq!(mode.class_index(), i, "{}", class.name());
            assert_eq!(mode.name(), class.name());
        }
    }

    /// Every ECG packet of `live`'s session, cut into `chunk_s` packets
    /// and timed as `DeviceSim` times them, after an attacker running
    /// `mode` over `attack_ms` intercepted it; then the count of packets
    /// it tampered with. Adaptive attackers get a fixed verdict pattern.
    fn intercepts(
        mode: AttackMode,
        live: &Record,
        chunk_s: f64,
        attack_ms: (u64, u64),
        seed: u64,
    ) -> (Vec<SensorPacket>, u64) {
        let mut attacker = Attacker::new(mode, attack_ms.0, attack_ms.1, seed);
        let mut sensor = SensorDevice::ecg(live, chunk_s);
        let mut out = Vec::new();
        let mut now_ms = 0u64;
        while let Some(packet) = sensor.poll() {
            out.push(attacker.intercept(now_ms, packet, live.fs));
            if out.len() % 5 == 0 {
                attacker.feedback(out.len() % 3 == 0);
            }
            now_ms += secs_to_ms(chunk_s);
        }
        (out, attacker.hijacked_packets())
    }

    #[test]
    fn materialize_with_renders_only_the_records_a_class_consumes() {
        let (live, donor) = live_and_donor();
        for class in all_classes() {
            let (live_calls, donor_calls) = (Cell::new(0u32), Cell::new(0u32));
            let mode = class.materialize_with(
                || {
                    live_calls.set(live_calls.get() + 1);
                    live.clone().into()
                },
                || {
                    donor_calls.set(donor_calls.get() + 1);
                    donor.clone().into()
                },
                8000,
            );
            let (want_live, want_donor) = match class {
                AttackClass::Freeze | AttackClass::NoiseInject { .. } => (0, 0),
                AttackClass::Replay { .. } | AttackClass::ReplaySnr { .. } => (1, 0),
                AttackClass::Substitution
                | AttackClass::Mimicry { .. }
                | AttackClass::PartialWindow { .. }
                | AttackClass::Coordinated
                | AttackClass::Adaptive => (0, 1),
            };
            assert_eq!(live_calls.get(), want_live, "{} victim renders", class.name());
            assert_eq!(donor_calls.get(), want_donor, "{} donor renders", class.name());
            // `materialize` is the whole-record wrapper: its attacker
            // tampers every packet exactly as this one does.
            let wrapped = class.materialize(&live, &donor, 8000);
            assert_eq!(
                intercepts(mode, &live, 0.25, (250, 1750), 3),
                intercepts(wrapped, &live, 0.25, (250, 1750), 3),
                "{} materialize differs from materialize_with",
                class.name()
            );
        }
    }

    #[test]
    fn cut_spans_are_a_fraction_of_the_session() {
        // The campaign bench's session: 56 s, attacked 16–40 s.
        let subjects = physio_sim::subject::bank();
        let scenario = Scenario::new(0, Version::Simplified, 56.0);
        let attack_ms = attack_window_ms(16.0, 40.0, 56.0).unwrap();
        for class in all_classes() {
            let mode = cut_attack_mode(&class, attack_ms, &scenario, &subjects[0], || &subjects[1]);
            let span = match mode {
                AttackMode::Freeze | AttackMode::NoiseInject { .. } => continue,
                AttackMode::Substitute { donor }
                | AttackMode::Mimicry { donor, .. }
                | AttackMode::PartialWindow { donor, .. }
                | AttackMode::Coordinated { donor }
                | AttackMode::Adaptive { donor } => donor,
                AttackMode::Replay { source, .. } | AttackMode::ReplaySnr { source, .. } => source,
            };
            assert_eq!(span.record_len, 20160, "{}", class.name());
            // 24 s of reads, shifted back 1 s for the replay classes.
            let want = match class.replay_offset_s() {
                Some(_) => (15.0, 39.0),
                None => (16.0, 40.0),
            };
            assert_eq!(
                (span.start, span.end()),
                ((want.0 * 360.0) as usize, (want.1 * 360.0) as usize),
                "{}",
                class.name()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The provisioner's cut spans cover every sample the attacker
        /// reads: over random sessions, attack windows, packet lengths,
        /// replay offsets and blend/coverage shares, every packet of
        /// every record-consuming class is intercepted exactly as with
        /// the whole records.
        #[test]
        fn cut_spans_cover_every_read(
            class_pick in 0usize..7,
            permille in 0u16..=1000,
            offset_s in 0.0f64..70.0,
            duration_s in 2.0f64..40.0,
            window in (0.0f64..1.0, 0.0f64..1.0),
            edges in (0u8..4, 0u8..4),
            chunk_pick in 0usize..7,
            subjects in (0usize..12, 0usize..12),
            seed in any::<u64>(),
        ) {
            let class = [
                AttackClass::Substitution,
                AttackClass::Replay { offset_s },
                AttackClass::Mimicry { blend_permille: permille },
                AttackClass::ReplaySnr { offset_s, snr_db: 6.0 },
                AttackClass::PartialWindow { coverage_permille: permille },
                AttackClass::Coordinated,
                AttackClass::Adaptive,
            ][class_pick];
            let mut scenario = Scenario::new(0, Version::Simplified, duration_s);
            scenario.chunk_s = [0.125, 0.25, 0.3, 0.37, 0.5, 1.0, 2.0][chunk_pick];
            scenario.seed = seed;
            // Each window end lies anywhere, on a packet's timestamp, or
            // one millisecond after or before one: where an off-by-one
            // in the span's packet walk would show.
            let chunk_ms = secs_to_ms(scenario.chunk_s);
            let at = |frac: f64, edge: u8| {
                let on_packet = secs_to_ms(frac * duration_s) / chunk_ms * chunk_ms;
                let ms = match edge {
                    0 => return frac * duration_s,
                    1 => on_packet,
                    2 => on_packet + 1,
                    _ => on_packet.saturating_sub(1),
                };
                (ms as f64 + 0.5) / 1000.0
            };
            let (a, b) = window;
            let (start_s, end_s) = (at(a.min(b), edges.0), at(a.max(b), edges.1));
            let Ok(attack_ms) = attack_window_ms(start_s, end_s, duration_s) else {
                continue; // empty in whole milliseconds, or past the session
            };
            let bank = physio_sim::subject::bank();
            let (victim, donor) = (&bank[subjects.0], &bank[subjects.1]);
            let live = Record::synthesize(victim, duration_s, seed ^ 0x11FE);
            let whole_donor = Record::synthesize(donor, duration_s, seed ^ 0xD00D);
            let window_ms = secs_to_ms(scenario.config.window_s);
            let whole = class.materialize(&live, &whole_donor, window_ms);
            let cut = cut_attack_mode(&class, attack_ms, &scenario, victim, || donor);
            let (chunk_s, attacker_seed) = (scenario.chunk_s, seed ^ 0xA77);
            prop_assert_eq!(
                intercepts(cut, &live, chunk_s, attack_ms, attacker_seed),
                intercepts(whole, &live, chunk_s, attack_ms, attacker_seed)
            );
        }
    }

    #[test]
    fn compat_constructors_cover_the_legacy_four() {
        assert_eq!(AttackClass::substitution().index(), 0);
        assert_eq!(AttackClass::replay(20.0).index(), 1);
        assert_eq!(AttackClass::freeze().index(), 2);
        assert_eq!(AttackClass::noise_inject(0.6).index(), 3);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        // Attack windows rejected before any device is built: NaN and
        // infinite ends, empty once truncated to whole milliseconds, a
        // negative start, an end past the session, a reversed window.
        // So are session durations that are infinite (every finite
        // window would fit, and beat synthesis would never end), NaN or
        // non-positive.
        let bad_durations = [f64::INFINITY, f64::NAN, 0.0, -24.0];
        let bad_windows = [
            (8.0, f64::NAN),
            (f64::NAN, 16.0),
            (8.0, f64::INFINITY),
            (1.0, 1.0004),
            (-1.0, 16.0),
            (8.0, 24.5),
            (16.0, 8.0),
        ];
        let base = CampaignPlan {
            population_size: 8,
            population_seed: 1,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 7,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 24.0,
            waves: vec![AttackWave {
                class: AttackClass::Substitution,
                devices: 1,
                start_s: 8.0,
                end_s: 16.0,
            }],
        };
        for bad in [
            CampaignPlan {
                population_size: 0,
                ..base.clone()
            },
            CampaignPlan {
                victim_pool: 0,
                ..base.clone()
            },
            CampaignPlan {
                victim_pool: 9,
                ..base.clone()
            },
            CampaignPlan {
                donors_per_victim: 0,
                ..base.clone()
            },
            CampaignPlan {
                donors_per_victim: 8,
                ..base.clone()
            },
            CampaignPlan {
                waves: Vec::new(),
                ..base.clone()
            },
        ]
        .into_iter()
        .chain(bad_windows.iter().map(|&(start_s, end_s)| CampaignPlan {
            waves: vec![AttackWave {
                class: AttackClass::Replay { offset_s: 4.0 },
                devices: 1,
                start_s,
                end_s,
            }],
            ..base.clone()
        }))
        .chain(bad_durations.iter().map(|&duration_s| CampaignPlan {
            duration_s,
            ..base.clone()
        })) {
            assert!(
                matches!(run_campaign(&bad), Err(WiotError::InvalidScenario { .. })),
                "plan accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn wave_schedule_partitions_devices() {
        let plan = CampaignPlan {
            population_size: 8,
            population_seed: 1,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 7,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 24.0,
            waves: vec![
                AttackWave {
                    class: AttackClass::Substitution,
                    devices: 2,
                    start_s: 8.0,
                    end_s: 16.0,
                },
                AttackWave {
                    class: AttackClass::Freeze,
                    devices: 3,
                    start_s: 8.0,
                    end_s: 16.0,
                },
            ],
        };
        assert_eq!(plan.devices(), 5);
        assert_eq!(plan.wave_of(0).unwrap().class, AttackClass::Substitution);
        assert_eq!(plan.wave_of(1).unwrap().class, AttackClass::Substitution);
        assert_eq!(plan.wave_of(2).unwrap().class, AttackClass::Freeze);
        assert_eq!(plan.wave_of(4).unwrap().class, AttackClass::Freeze);
        assert!(plan.wave_of(5).is_none());
    }

    #[test]
    fn small_campaign_runs_and_scores_per_class() {
        let plan = CampaignPlan {
            population_size: 8,
            population_seed: 0xBEEF,
            victim_pool: 2,
            donors_per_victim: 3,
            seed: 0x5EED,
            threads: 1,
            backend: BackendKind::Svm,
            version: Version::Simplified,
            duration_s: 32.0,
            waves: vec![
                AttackWave {
                    class: AttackClass::Substitution,
                    devices: 2,
                    start_s: 8.0,
                    end_s: 24.0,
                },
                AttackWave {
                    class: AttackClass::Adaptive,
                    devices: 1,
                    start_s: 8.0,
                    end_s: 24.0,
                },
            ],
        };
        let r = run_campaign(&plan).unwrap();
        assert_eq!(r.fleet.devices, 3);
        let sub = &r.classes[AttackClass::Substitution.index()];
        assert_eq!(sub.devices, 2);
        assert!(
            sub.windows_tp + sub.windows_fn > 0,
            "substitution wave scored no attacked windows"
        );
        assert!(sub.wilson_lo_permille <= sub.detection_permille);
        assert!(sub.detection_permille <= sub.wilson_hi_permille);
        let ad = &r.classes[AttackClass::Adaptive.index()];
        assert_eq!(ad.devices, 1);
        assert!(ad.windows_tp + ad.windows_fn > 0);
        // Unstaged classes stay zero.
        assert_eq!(r.classes[AttackClass::Freeze.index()].devices, 0);
        assert_eq!(r.classes[AttackClass::Freeze.index()].windows_tp, 0);
        // Determinism across runs and thread counts.
        let again = run_campaign(&plan).unwrap();
        assert_eq!(r.digest(), again.digest());
        let threaded = run_campaign(&CampaignPlan {
            threads: 3,
            ..plan.clone()
        })
        .unwrap();
        assert_eq!(r.digest(), threaded.digest(), "digest thread-sensitive");
        assert_eq!(r.classes, threaded.classes);
    }
}
