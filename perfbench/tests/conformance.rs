//! A tiny instance of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names is produced with its unit, the outputs pass
//! their checks, and the traced device pass reproduces the engine's
//! per-device rows. Run with `cargo test --release`.

use perfbench::trace::{mismatched_devices, run_traced};
use perfbench::workload::{Instance, Workload};
use perfbench::{e2e, Reported};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let list = &text[start..];
    let list = &list[..list.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn names_units(metrics: &[Reported]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: Workload) -> usize {
    match workload {
        Workload::FleetReference => 2,
        Workload::FleetXlTurbo => 4,
        Workload::CampaignMixed => 9,
    }
}

#[test]
fn every_end_to_end_metric_is_reported_and_checked() {
    let want = listed("end_to_end");
    assert!(want.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let out = e2e::run(Instance::sized(w, 7, tiny(w)), 0.0).expect("untraced run");
        assert!(out.correct(), "{}: {:?}", w.name(), out.checks);
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, (tiny(w) * out.reps.len()) as u64);
        assert_eq!(names_units(&out.end_to_end()), want, "{}", w.name());
        let sim = out.simulated.expect("a call succeeded");
        assert_eq!(
            sim.detect_permille.is_some(),
            w == Workload::CampaignMixed,
            "detect_permille only where windows are attacked"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_and_reproduces_engine_rows() {
    let want = listed("per_layer");
    for w in Workload::ALL {
        let out = run_traced(Instance::sized(w, 7, tiny(w)), 0.0).expect("traced run");
        assert!(
            out.checks.iter().all(|(_, ok)| *ok),
            "{}: {:?}",
            w.name(),
            out.checks
        );
        assert_eq!(out.failed, 0);
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, want, "{}", w.name());
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert!(value("ml.sink.windows") > 0.0);
        assert!(value("amulet.dispatch.windows") > 0.0);
        assert_eq!(
            value("wiot.persist.commits") > 0.0,
            w != Workload::FleetXlTurbo,
            "FRAM commits only where persistence is on"
        );
        assert_eq!(
            value("sift.checkpoint.swaps") > 0.0,
            w == Workload::FleetXlTurbo,
            "checkpoint swaps only on the slab engine"
        );
        assert_eq!(
            value("wiot.attacker.intercepted_packets") > 0.0,
            w == Workload::CampaignMixed
        );
    }
}

#[test]
fn a_disagreeing_row_is_caught() {
    let inst = Instance::sized(Workload::FleetReference, 3, 2);
    let enrolled = perfbench::workload::enroll(&inst, &mut perfbench::trace::Tracer::disabled())
        .expect("bank");
    let rows = perfbench::workload::reference_rows(&inst, &enrolled).expect("engine rows");
    let traced: Vec<_> = rows
        .iter()
        .map(perfbench::trace::DeviceRow::of_summary)
        .collect();
    assert!(mismatched_devices(&traced, &rows).is_empty());
    let mut off = traced.clone();
    off[1].windows_scored += 1;
    assert_eq!(mismatched_devices(&off, &rows), vec![1]);
    assert_eq!(mismatched_devices(&traced[..1], &rows), vec![1]);
}
