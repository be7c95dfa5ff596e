//! The benchmark's workloads: their fidelity knobs, their one-time
//! enrollment, the provisioning policy each engine runs, and the timed
//! engine call whose report the end-to-end metrics come from.
//!
//! Everything here goes through the public APIs of `physio_sim`,
//! `sift`, `ml` and `wiot`. The campaign provisioner is a replica of
//! the one inside `wiot::campaign::run_campaign`; the traced run checks
//! on every invocation that it reproduces the engine's per-device rows.

use crate::trace::Tracer;
use crate::BenchResult;
use ml::{BackendKind, DetectorModel};
use physio_sim::population::{nearest_neighbor, population};
use physio_sim::record::{Record, SynthProfile};
use physio_sim::subject::{bank, Subject};
use sift::features::Version;
use sift::trainer::ModelBank;
use wiot::campaign::{run_campaign, AttackClass, AttackWave, CampaignPlan};
use wiot::channel::LossModel;
use wiot::fleet::{
    device_seed, run_fleet_provisioned, DeviceProvision, DeviceSummary, FleetProvisioner,
    FleetReport, FleetSpec,
};
use wiot::scenario::{AttackSpec, Scenario};
use wiot::slab::run_fleet_streamed_provisioned;
use wiot::WiotError;

/// Worker threads every workload runs at.
pub const THREADS: usize = 2;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 61455;
/// A seed kept out of tuning: a later speed claim must also hold here.
pub const HELD_OUT_SEED: u64 = 0x0B5E_55ED;

/// Seed of the fleet workloads' model bank. Enrollment is the deployed
/// product, not an input: every workload seed runs against the same
/// twelve models, so set-up work and false-alarm rates do not swing
/// with the model draw.
const ENROLL_SEED: u64 = 0xF1EE7;
/// Fleet session length, simulated seconds.
const FLEET_SESSION_S: f64 = 30.0;
/// Campaign constants, matching `bench --bin campaign`.
const CAMPAIGN_SESSION_S: f64 = 56.0;
const ATTACK_START_S: f64 = 16.0;
const ATTACK_END_S: f64 = 40.0;
const POPULATION: usize = 1024;
const VICTIM_POOL: usize = 8;
const DONORS_PER_VICTIM: usize = 6;
/// One wave per attack class.
const WAVES: usize = wiot::attacker::ATTACK_CLASS_COUNT;
/// The population seed is this constant mixed with the workload seed.
const POPULATION_SEED: u64 = 0x090B_1A7E;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Resident engine, full-fidelity default template.
    FleetReference,
    /// Slab engine, `fleet_xl`'s throughput-first template.
    FleetXlTurbo,
    /// Adversary campaign over a 1024-subject population.
    CampaignMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetReference,
        Workload::FleetXlTurbo,
        Workload::CampaignMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetReference => "fleet_reference",
            Workload::FleetXlTurbo => "fleet_xl_turbo",
            Workload::CampaignMixed => "campaign_mixed",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Devices in one timed engine call. Campaign sizes are nine equal
    /// waves.
    pub fn devices(self) -> usize {
        match self {
            Workload::FleetReference => 640,
            Workload::FleetXlTurbo => 2000,
            Workload::CampaignMixed => WAVES * 24,
        }
    }

    /// Devices the traced run replays.
    pub fn traced_devices(self) -> usize {
        match self {
            Workload::FleetReference => 16,
            Workload::FleetXlTurbo => 48,
            Workload::CampaignMixed => 18,
        }
    }

    /// Name of the digest the workload's report carries.
    pub fn digest_name(self) -> &'static str {
        match self {
            Workload::FleetReference => "FleetReport::digest",
            Workload::FleetXlTurbo => "SlabReport::slab_digest",
            Workload::CampaignMixed => "CampaignReport::digest",
        }
    }

    /// Name of the engine the timed call runs.
    pub fn engine(self) -> &'static str {
        match self {
            Workload::FleetReference => "resident",
            Workload::FleetXlTurbo => "slab",
            Workload::CampaignMixed => "resident(campaign)",
        }
    }
}

/// A workload at a concrete size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: fleet seed, or campaign seed.
    pub seed: u64,
    /// Devices simulated (a multiple of nine for the campaign).
    pub devices: usize,
    /// Engine worker threads.
    pub threads: usize,
}

impl Instance {
    /// The instance one timed engine call runs.
    pub fn full(workload: Workload, seed: u64) -> Self {
        Self::sized(workload, seed, workload.devices())
    }

    /// An instance of `devices` devices at [`THREADS`] workers; the
    /// campaign rounds up to whole waves.
    pub fn sized(workload: Workload, seed: u64, devices: usize) -> Self {
        let devices = match workload {
            Workload::CampaignMixed => devices.max(1).div_ceil(WAVES) * WAVES,
            _ => devices,
        };
        Self {
            workload,
            seed,
            devices,
            threads: THREADS,
        }
    }

    /// The per-device template every device of the instance starts from.
    pub fn template(&self) -> Scenario {
        match self.workload {
            Workload::FleetReference => Scenario::new(0, Version::Simplified, FLEET_SESSION_S),
            Workload::FleetXlTurbo => {
                let mut t = Scenario::new(0, Version::Reduced, FLEET_SESSION_S);
                t.synth = SynthProfile::Turbo;
                t.persist = false;
                t.backend = BackendKind::Svm;
                t
            }
            Workload::CampaignMixed => {
                let mut t = Scenario::new(0, Version::Simplified, CAMPAIGN_SESSION_S);
                t.backend = BackendKind::Tsetlin;
                t
            }
        }
    }

    /// The fleet spec the engine runs (for the campaign, the spec
    /// `run_campaign` builds around its provisioner).
    pub fn spec(&self) -> FleetSpec {
        FleetSpec {
            devices: self.devices,
            threads: self.threads.clamp(1, self.devices.max(1)),
            seed: self.seed,
            telemetry: false,
            template: self.template(),
        }
    }

    /// The campaign plan: all nine attack classes in equal waves.
    pub fn campaign_plan(&self) -> CampaignPlan {
        let template = self.template();
        let classes = [
            AttackClass::Substitution,
            AttackClass::Replay { offset_s: 10.0 },
            AttackClass::Freeze,
            AttackClass::NoiseInject { amplitude_mv: 0.6 },
            AttackClass::Mimicry {
                blend_permille: 700,
            },
            AttackClass::ReplaySnr {
                offset_s: 10.0,
                snr_db: 6.0,
            },
            AttackClass::PartialWindow {
                coverage_permille: 600,
            },
            AttackClass::Coordinated,
            AttackClass::Adaptive,
        ];
        let per_wave = self.devices / WAVES;
        CampaignPlan {
            population_size: POPULATION,
            population_seed: POPULATION_SEED ^ self.seed,
            victim_pool: VICTIM_POOL,
            donors_per_victim: DONORS_PER_VICTIM,
            seed: self.seed,
            threads: self.spec().threads,
            backend: template.backend,
            version: template.version,
            duration_s: template.duration_s,
            waves: classes
                .into_iter()
                .map(|class| AttackWave {
                    class,
                    devices: per_wave,
                    start_s: ATTACK_START_S,
                    end_s: ATTACK_END_S,
                })
                .collect(),
        }
    }

    /// The fidelity knobs, as one `key=value` line.
    pub fn knobs(&self) -> String {
        let t = self.template();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "engine={} synth={} flavor={} persist={} backend={} devices={} session_s={} \
             threads={} nproc={} default_seed={} held_out_seed={}",
            self.workload.engine(),
            match t.synth {
                SynthProfile::Reference => "reference",
                SynthProfile::Turbo => "turbo",
            },
            t.version,
            if t.persist { "on" } else { "off" },
            t.backend.id(),
            self.devices,
            t.duration_s,
            self.spec().threads,
            nproc,
            DEFAULT_SEED,
            HELD_OUT_SEED,
        )
    }
}

/// The campaign's enrolled victim cohort, built exactly as
/// `run_campaign` builds it.
pub struct Cohort {
    /// The generated population.
    pub subjects: Vec<Subject>,
    /// Population indices of the victim pool.
    pub pool: Vec<usize>,
    /// One deployed model per pool slot.
    pub models: Vec<DetectorModel>,
}

/// What one-time set-up produces.
pub enum Enrolled {
    /// The 12-subject bank the fleet workloads share.
    Bank(ModelBank),
    /// The campaign's population and victim models.
    Cohort(Cohort),
}

/// Enroll one campaign victim: its training record, its donors', and
/// one `sift::zoo::train_backend` call.
fn enroll_victim(
    plan: &CampaignPlan,
    subjects: &[Subject],
    victim: usize,
    template: &Scenario,
) -> BenchResult<DetectorModel> {
    let n = plan.population_size;
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
    Ok(sift::zoo::train_backend(
        &victim_rec,
        &donor_refs,
        plan.version,
        plan.backend,
        &template.config,
    )?)
}

/// One-time set-up, with a `sift.enroll` span around each enrollment
/// call: the fleets' model bank, or the campaign's population and one
/// model per pool victim (spread evenly over the population, as
/// `run_campaign` picks them).
pub fn enroll(inst: &Instance, tr: &mut Tracer) -> BenchResult<Enrolled> {
    let template = inst.template();
    if inst.workload != Workload::CampaignMixed {
        let models = tr.time("sift.enroll", 0, None, || {
            ModelBank::train_backend(
                &bank(),
                template.version,
                template.backend,
                &template.config,
                ENROLL_SEED,
            )
        })?;
        return Ok(Enrolled::Bank(models));
    }
    let plan = inst.campaign_plan();
    let subjects = population(plan.population_size, plan.population_seed);
    let pool: Vec<usize> = (0..plan.victim_pool)
        .map(|i| i * plan.population_size / plan.victim_pool)
        .collect();
    let mut models = Vec::with_capacity(pool.len());
    for &v in &pool {
        models.push(tr.time("sift.enroll", v, None, || {
            enroll_victim(&plan, &subjects, v, &template)
        })?);
    }
    Ok(Enrolled::Cohort(Cohort {
        subjects,
        pool,
        models,
    }))
}

/// Victims round-robin over the 12-subject bank, models shared from it
/// (the policy `run_fleet_with_bank` and `run_fleet_streamed` use).
pub struct BankProvisioner<'a> {
    models: &'a ModelBank,
    subjects: usize,
}

impl FleetProvisioner for BankProvisioner<'_> {
    fn provision(&self, spec: &FleetSpec, device: usize) -> Result<DeviceProvision<'_>, WiotError> {
        let mut scenario = spec.template.clone();
        scenario.victim = device % self.subjects;
        scenario.seed = device_seed(spec.seed, device);
        let deployed = self
            .models
            .deployed(scenario.victim)
            .ok_or(WiotError::InvalidScenario {
                reason: "model bank does not cover the device's victim",
            })?;
        Ok(DeviceProvision {
            model: self.models.get(scenario.victim).map(|m| m.as_ref()),
            subject: None,
            deployed: deployed.as_ref(),
            scenario,
        })
    }
}

/// Replica of `run_campaign`'s provisioner: pool victims, per-wave
/// attacks materialized from a victim and a donor recording, and the
/// coordinated wave's burst-loss link with reliability on.
pub struct CampaignProvisioner<'a> {
    plan: CampaignPlan,
    cohort: &'a Cohort,
}

impl CampaignProvisioner<'_> {
    /// The wave `device` belongs to.
    pub fn wave_of(&self, device: usize) -> Option<&AttackWave> {
        let mut off = 0usize;
        self.plan.waves.iter().find(|w| {
            let hit = device < off + w.devices;
            off += w.devices;
            hit
        })
    }

    /// The donor a device of `class` attacking `victim` imitates.
    pub fn donor_index(&self, class: &AttackClass, victim: usize, scenario_seed: u64) -> usize {
        let n = self.cohort.subjects.len();
        if n == 1 {
            return 0;
        }
        if matches!(class, AttackClass::Mimicry { .. } | AttackClass::Adaptive) {
            if let Some(j) = nearest_neighbor(&self.cohort.subjects, victim) {
                return j;
            }
        }
        let draw = if matches!(class, AttackClass::Coordinated) {
            device_seed(self.plan.seed ^ 0xC0_0D, class.index())
        } else {
            device_seed(scenario_seed ^ 0xD0_40, 0)
        };
        let off = 1 + (draw % (n as u64 - 1)) as usize;
        (victim + off) % n
    }

    /// The cohort's subjects.
    pub fn subjects(&self) -> &[Subject] {
        &self.cohort.subjects
    }
}

impl FleetProvisioner for CampaignProvisioner<'_> {
    fn provision(&self, spec: &FleetSpec, device: usize) -> Result<DeviceProvision<'_>, WiotError> {
        let wave = self.wave_of(device).ok_or(WiotError::InvalidScenario {
            reason: "device index outside the campaign schedule",
        })?;
        let pool_slot = device % self.cohort.pool.len();
        let victim = self.cohort.pool[pool_slot];
        let mut scenario = spec.template.clone();
        scenario.victim = victim;
        scenario.seed = device_seed(spec.seed, device);

        let subjects = &self.cohort.subjects;
        let victim_live = Record::synthesize(
            &subjects[victim],
            scenario.duration_s,
            scenario.seed ^ 0x11FE,
        );
        let donor = Record::synthesize(
            &subjects[self.donor_index(&wave.class, victim, scenario.seed)],
            scenario.duration_s,
            scenario.seed ^ 0xD00D,
        );
        let window_ms = (scenario.config.window_s * 1000.0) as u64;
        scenario.attack = Some(AttackSpec {
            mode: wave.class.materialize(&victim_live, &donor, window_ms),
            start_s: wave.start_s,
            end_s: wave.end_s,
        });
        if matches!(wave.class, AttackClass::Coordinated) {
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
            subject: Some(&subjects[victim]),
            model: None,
            deployed: &self.cohort.models[pool_slot],
        })
    }
}

/// The provisioning policy of an instance, over what set-up enrolled.
pub enum Provisioner<'a> {
    /// Fleet workloads.
    Bank(BankProvisioner<'a>),
    /// The campaign.
    Campaign(CampaignProvisioner<'a>),
}

impl<'a> Provisioner<'a> {
    /// The policy `inst`'s engine runs.
    pub fn new(inst: &Instance, enrolled: &'a Enrolled) -> Self {
        match enrolled {
            Enrolled::Bank(models) => Provisioner::Bank(BankProvisioner {
                models,
                subjects: bank().len(),
            }),
            Enrolled::Cohort(cohort) => Provisioner::Campaign(CampaignProvisioner {
                plan: inst.campaign_plan(),
                cohort,
            }),
        }
    }

    /// As a trait object for the engines.
    pub fn as_dyn(&self) -> &dyn FleetProvisioner {
        match self {
            Provisioner::Bank(p) => p,
            Provisioner::Campaign(p) => p,
        }
    }
}

/// What one engine call reports.
pub struct EngineRun {
    /// The fleet report (no per-device rows from the slab engine).
    pub report: FleetReport,
    /// The workload's digest ([`Workload::digest_name`]).
    pub digest: u64,
    /// `(pending_high_water, window_cap)` of the slab engine.
    pub slab_window: Option<(usize, usize)>,
    /// Campaign: attack classes staged, and substitution-class TPs.
    pub campaign_staging: Option<(usize, u64)>,
}

/// The timed call of the end-to-end run: the workload's own engine
/// entry point at the instance's size. The campaign call enrolls its
/// own victim pool; the fleet calls reuse `enrolled`.
pub fn run_engine(inst: &Instance, enrolled: &Enrolled) -> BenchResult<EngineRun> {
    match (inst.workload, enrolled) {
        (Workload::FleetReference, Enrolled::Bank(models)) => {
            let report = wiot::fleet::run_fleet_with_bank(&inst.spec(), models)?;
            Ok(EngineRun {
                digest: report.digest(),
                report,
                slab_window: None,
                campaign_staging: None,
            })
        }
        (Workload::FleetXlTurbo, Enrolled::Bank(models)) => {
            let slab = wiot::slab::run_fleet_streamed(&inst.spec(), models)?;
            Ok(EngineRun {
                digest: slab.slab_digest,
                slab_window: Some((slab.pending_high_water, slab.window_cap)),
                report: slab.report,
                campaign_staging: None,
            })
        }
        (Workload::CampaignMixed, _) => {
            let report = run_campaign(&inst.campaign_plan())?;
            let staged = report.classes.iter().filter(|c| c.devices > 0).count();
            let substitution_tp = report.classes[AttackClass::Substitution.index()].windows_tp;
            Ok(EngineRun {
                digest: report.digest(),
                report: report.fleet,
                slab_window: None,
                campaign_staging: Some((staged, substitution_tp)),
            })
        }
        _ => Err("set-up does not match the workload".into()),
    }
}

/// Run the workload's engine over `prov` (no enrollment inside the
/// call), keeping per-device rows when the engine keeps them.
pub fn run_provisioned(inst: &Instance, prov: &Provisioner<'_>) -> BenchResult<EngineRun> {
    let spec = inst.spec();
    if inst.workload == Workload::FleetXlTurbo {
        let slab = run_fleet_streamed_provisioned(&spec, prov.as_dyn())?;
        return Ok(EngineRun {
            digest: slab.slab_digest,
            slab_window: Some((slab.pending_high_water, slab.window_cap)),
            report: slab.report,
            campaign_staging: None,
        });
    }
    let report = run_fleet_provisioned(&spec, prov.as_dyn())?;
    Ok(EngineRun {
        digest: report.digest(),
        report,
        slab_window: None,
        campaign_staging: None,
    })
}

/// The public entry point whose per-device rows the traced run must
/// reproduce: the resident engine for the fleets (the slab engine keeps
/// no rows), `run_campaign` for the campaign.
pub fn reference_entry_point(workload: Workload) -> &'static str {
    match workload {
        Workload::CampaignMixed => "run_campaign",
        _ => "run_fleet_with_bank",
    }
}

/// Per-device rows of [`reference_entry_point`] for `inst`.
pub fn reference_rows(inst: &Instance, enrolled: &Enrolled) -> BenchResult<Vec<DeviceSummary>> {
    Ok(match enrolled {
        Enrolled::Bank(models) => {
            wiot::fleet::run_fleet_with_bank(&inst.spec(), models)?.per_device
        }
        Enrolled::Cohort(_) => run_campaign(&inst.campaign_plan())?.fleet.per_device,
    })
}

/// Windows the station resolved: scored, ambiguous, or dropped.
pub fn windows_resolved(r: &FleetReport) -> usize {
    let c = &r.confusion;
    c.tp + c.fp + c.tn + c.fn_ + r.ambiguous_windows + r.dropped_windows
}

/// The simulated end-to-end figures of one report. Deterministic: the
/// same seed gives the same values on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulated {
    /// Modelled MSP430 active cycles per resolved window.
    pub cycles_per_window: f64,
    /// Base of `cycles_per_window`.
    pub windows_resolved: usize,
    /// FP / (FP + TN), per mille.
    pub false_alarm_permille: f64,
    /// (TP + TN) / (TP + FP + TN + FN), per mille: the share of scored
    /// windows whose verdict was right. The pipeline compares this one
    /// quality figure: it is never near zero, and on the campaign the
    /// detection and false-alarm rates, which move together with each
    /// seed's models, partly cancel in it.
    pub accuracy_permille: f64,
    /// TP + FP + TN + FN.
    pub scored_windows: usize,
    /// FP + TN.
    pub genuine_windows: usize,
    /// TP / (TP + FN), per mille (`None` without attacked windows).
    pub detect_permille: Option<f64>,
    /// TP + FN.
    pub attacked_windows: usize,
    /// Fleet mean window recovery, per mille.
    pub window_recovery_permille: f64,
}

impl Simulated {
    /// All zero: the figures of a run in which no call succeeded.
    pub const NONE: Simulated = Simulated {
        cycles_per_window: 0.0,
        windows_resolved: 0,
        false_alarm_permille: 0.0,
        accuracy_permille: 0.0,
        scored_windows: 0,
        genuine_windows: 0,
        detect_permille: None,
        attacked_windows: 0,
        window_recovery_permille: 0.0,
    };

    /// Derive the figures from a report.
    pub fn of(r: &FleetReport) -> Self {
        let c = &r.confusion;
        let resolved = windows_resolved(r);
        let genuine = c.fp + c.tn;
        let attacked = c.tp + c.fn_;
        Self {
            cycles_per_window: ratio(r.usage.active_cycles, resolved),
            windows_resolved: resolved,
            false_alarm_permille: 1000.0 * ratio(c.fp as f64, genuine),
            accuracy_permille: 1000.0 * ratio((c.tp + c.tn) as f64, genuine + attacked),
            scored_windows: genuine + attacked,
            genuine_windows: genuine,
            detect_permille: (attacked > 0).then(|| 1000.0 * ratio(c.tp as f64, attacked)),
            attacked_windows: attacked,
            window_recovery_permille: 1000.0 * r.mean_window_recovery,
        }
    }
}

/// `num / base`, 0 for an empty base.
pub fn ratio(num: f64, base: usize) -> f64 {
    if base == 0 {
        0.0
    } else {
        num / base as f64
    }
}
