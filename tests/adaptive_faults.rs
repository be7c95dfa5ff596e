//! Cross-layer scenario: timing faults and link degradation feeding the
//! survival policy's link input.
//!
//! Clock drift skews packet timestamps but does not destroy data, so it
//! must neither trip the stream watchdog (no spurious `StreamStalled`)
//! nor push the policy off the full detector. A genuinely lossy link,
//! measured through the same observation path, must latch the policy's
//! cap at the simplified version — while ARQ still keeps the watchdog
//! quiet.

use sift::features::Version;
use wiot::channel::LossModel;
use wiot::device::Stream;
use wiot::faults::{FaultEvent, FaultKind, FaultPlan};
use wiot::scenario::{run, LinkQuality, Scenario, SimReport};
use wiot::survival::{
    SurvivalAction, SurvivalConfig, SurvivalInputs, SurvivalPolicy, SurvivalVerdict, PERMILLE_FULL,
};

/// The link badness the runner would feed the policy: observed channel
/// loss plus ARQ retransmission drag, in permille.
fn observed_badness(r: &SimReport) -> u16 {
    LinkQuality {
        loss_rate: r.channel_loss_rate,
        retransmit_rate: r
            .transport
            .as_ref()
            .map(|t| t.retransmit_rate())
            .unwrap_or(0.0),
    }
    .badness_permille()
}

/// Step a fresh full-battery policy on `badness` long enough for its
/// link EWMA to converge, returning the policy and every verdict.
fn policy_on(badness: u16) -> (SurvivalPolicy, Vec<SurvivalVerdict>) {
    let mut p = SurvivalPolicy::new(SurvivalConfig::default(), Version::Original);
    let verdicts = (0..40)
        .map(|_| {
            p.step(SurvivalInputs {
                soc_permille: PERMILLE_FULL,
                link_badness_permille: badness,
                backlog_windows: 0,
            })
        })
        .collect();
    (p, verdicts)
}

/// 5% clock drift on the ABP stream for 20 s skews timestamps by about
/// a second — far below the 9 s watchdog — so the run must end with
/// measurable skew, zero stall alerts, and a policy still quiescent on
/// the original detector.
#[test]
fn clock_drift_neither_stalls_the_watchdog_nor_degrades_the_engine() {
    let mut s = Scenario::new(3, Version::Reduced, 60.0).with_reliability();
    s.faults = FaultPlan::new().with(FaultEvent {
        start_s: 10.0,
        end_s: 30.0,
        kind: FaultKind::ClockDrift {
            stream: Stream::Abp,
            ppm: 50_000.0,
        },
    });
    let r = run(&s).unwrap();

    assert!(r.faults.max_clock_skew_ms > 0, "{:?}", r.faults);
    assert_eq!(r.stall_alerts, 0, "drift must not look like a stall");
    assert!(
        !r.sink.alerts().iter().any(|a| a.app == "watchdog"),
        "no watchdog alert may reach the sink under pure drift"
    );

    let (p, verdicts) = policy_on(observed_badness(&r));
    assert!(verdicts.iter().all(SurvivalVerdict::is_quiescent));
    assert!(!p.link_capped());
    assert_eq!(p.version(), Version::Original);
}

/// The same deployment with a genuinely bad link: the policy must latch
/// the Simplified cap from the very same observation path, and ARQ must
/// keep enough chunks flowing that the watchdog still never fires.
#[test]
fn degraded_link_caps_the_engine_at_simplified_without_stalling() {
    let mut s = Scenario::new(3, Version::Reduced, 60.0).with_reliability();
    s.faults = FaultPlan::new().with(FaultEvent {
        start_s: 5.0,
        end_s: 55.0,
        kind: FaultKind::LinkDegrade {
            stream: None,
            loss: LossModel::Bernoulli { p: 0.4 },
        },
    });
    let r = run(&s).unwrap();

    assert!(r.faults.degraded_link_ms > 0, "{:?}", r.faults);
    assert_eq!(r.stall_alerts, 0, "ARQ should keep both streams alive");

    let badness = observed_badness(&r);
    assert!(
        badness >= SurvivalConfig::default().link_bad_permille,
        "observed badness {badness} permille should reach the cap threshold"
    );
    let (p, verdicts) = policy_on(badness);
    assert!(p.link_capped());
    assert_eq!(p.version(), Version::Simplified);
    let switches: Vec<_> = verdicts.iter().filter_map(|v| v.version).collect();
    assert!(
        matches!(
            switches.as_slice(),
            [SurvivalAction::SetVersion {
                from: Version::Original,
                to: Version::Simplified,
                ..
            }]
        ),
        "{switches:?}"
    );
}
