//! Integration of the adaptive-security survival policy with the real
//! platform apps: hot-swapping detector versions on a running AmuletOS.

use amulet_sim::apps::SiftApp;
use amulet_sim::event::AmuletEvent;
use amulet_sim::machine::App;
use amulet_sim::os::AmuletOs;
use amulet_sim::profiler::ResourceProfiler;
use amulet_sim::toolchain::FirmwareImage;
use physio_sim::dataset::windows;
use physio_sim::record::Record;
use physio_sim::subject::bank;
use sift::config::SiftConfig;
use sift::features::Version;
use sift::trainer::{train_for_subject, SiftModel};
use wiot::survival::{SurvivalAction, SurvivalConfig, SurvivalInputs, SurvivalPolicy};

fn quick_config() -> SiftConfig {
    SiftConfig {
        train_s: 60.0,
        max_positive_per_donor: Some(15),
        ..SiftConfig::default()
    }
}

fn train_all(cfg: &SiftConfig) -> Vec<(Version, SiftModel)> {
    Version::ALL
        .iter()
        .map(|&v| (v, train_for_subject(&bank(), 0, v, cfg, 3).unwrap()))
        .collect()
}

fn build_app(
    version: Version,
    models: &[(Version, SiftModel)],
    cfg: &SiftConfig,
) -> (SiftApp, FirmwareImage) {
    let model = &models.iter().find(|(v, _)| *v == version).unwrap().1;
    let app = SiftApp::new(version, model.embedded().clone(), cfg.clone()).unwrap();
    let image =
        FirmwareImage::build(vec![app.resource_spec()], &ResourceProfiler::default()).unwrap();
    (app, image)
}

/// The full adaptive loop: the policy degrades the detector as the
/// battery drains, and the OS actually swaps the apps.
#[test]
fn engine_hot_swaps_apps_on_the_running_os() {
    let cfg = quick_config();
    let models = train_all(&cfg);
    let mut os = AmuletOs::new();
    let (app, image) = build_app(Version::Original, &models, &cfg);
    os.install(&image, vec![Box::new(app)]).unwrap();

    let mut policy = SurvivalPolicy::new(
        SurvivalConfig {
            min_dwell_ticks: 0,
            ..SurvivalConfig::default()
        },
        Version::Original,
    );

    let live = Record::synthesize(&bank()[0], 30.0, 1);
    let snippets: Vec<_> = windows(&live, 3.0)
        .unwrap()
        .iter()
        .map(|w| sift::snippet::Snippet::from_record(w).unwrap())
        .collect();

    // Battery state of charge (permille) sampled over a simulated
    // discharge.
    let levels = [900, 700, 450, 300, 150, 50];
    let mut deployed = Version::Original;
    for (step, &soc_permille) in levels.iter().enumerate() {
        // Process a window with the currently deployed app.
        os.post(AmuletEvent::SnippetReady(snippets[step % snippets.len()].clone()));
        os.run_until_idle().unwrap();

        let verdict = policy.step(SurvivalInputs {
            soc_permille,
            link_badness_permille: 0,
            backlog_windows: 0,
        });
        if let Some(SurvivalAction::SetVersion { to: next, .. }) = verdict.version {
            // Version switch = reflash with the new image (Insight #4).
            let (app, image) = build_app(next, &models, &cfg);
            os.reflash(&image, vec![Box::new(app)]).unwrap();
            deployed = next;
        }
    }
    assert_eq!(deployed, Version::Reduced, "should end on the cheapest version");
    assert_eq!(os.app_names(), vec!["sift-reduced"]);
    assert_eq!(policy.switches(), 2);
    // The swapped-in app still works.
    os.post(AmuletEvent::SnippetReady(snippets[0].clone()));
    os.run_until_idle().unwrap();
    assert_eq!(os.app_state("sift-reduced").unwrap(), "PeaksDataCheck");
}
