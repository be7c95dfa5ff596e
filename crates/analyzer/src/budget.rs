//! The semantic budget pass: recompute each detector flavor's static
//! RAM/ROM footprint from the `amulet-sim` profiler cost tables and the
//! `ml` model serialization format, then check it against the Amulet's
//! memory map and the paper's Table III.
//!
//! This is deliberately *not* lexical: it consumes the same
//! `sift_app_spec` / `ResourceProfiler` machinery the simulator uses,
//! so the certified numbers are the numbers the rest of the repo runs
//! on, not a parallel re-derivation that could drift.

use crate::callgraph::{StackReport, FRAME_OVERHEAD_BYTES, REGISTER_ARGS, WORD_BYTES};
use crate::report::json_escape;
use crate::rules::Finding;
use amulet_sim::memory::MAX_ARRAY_ELEMS;
use amulet_sim::nvram::{HEADER_BYTES, MAX_PAYLOAD_BYTES, NVRAM_BYTES, SLOT_BYTES};
use amulet_sim::profiler::{sift_app_spec, ResourceProfiler};
use amulet_sim::{FRAM_BYTES, SRAM_BYTES};
use sift::config::SiftConfig;
use sift::features::Version;

/// Paper Table III row for one flavor (the published Amulet build).
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// System FRAM (OS + pulled libraries), KB.
    pub system_fram_kb: f64,
    /// Detector app FRAM (code + model + buffers), KB.
    pub app_fram_kb: f64,
    /// Detector app peak SRAM, bytes.
    pub app_sram_b: usize,
    /// Battery lifetime, days.
    pub lifetime_days: f64,
}

/// Table III, in `Version::ALL` order (Original, Simplified, Reduced).
pub const PAPER_ROWS: [PaperRow; 3] = [
    PaperRow {
        system_fram_kb: 77.03,
        app_fram_kb: 4.79,
        app_sram_b: 259,
        lifetime_days: 23.0,
    },
    PaperRow {
        system_fram_kb: 71.58,
        app_fram_kb: 4.02,
        app_sram_b: 259,
        lifetime_days: 26.0,
    },
    PaperRow {
        system_fram_kb: 56.29,
        app_fram_kb: 2.56,
        app_sram_b: 69,
        lifetime_days: 55.0,
    },
];

/// Relative tolerance for FRAM rows against the paper (the profiler is
/// calibrated to the table; 2% absorbs rounding in the published KB).
const FRAM_TOLERANCE: f64 = 0.02;

/// Computed footprint of one flavor plus its budget verdicts.
#[derive(Debug, Clone)]
pub struct FlavorFootprint {
    /// Detector flavor.
    pub version: Version,
    /// Serialized SVM model bytes (`MAGIC + dim + weights + bias`).
    pub model_bytes: usize,
    /// Samples per window buffer.
    pub window_samples: usize,
    /// System FRAM including pulled libraries, bytes.
    pub system_fram_bytes: usize,
    /// App FRAM (code + data), bytes.
    pub app_fram_bytes: usize,
    /// System SRAM peak, bytes.
    pub system_sram_bytes: usize,
    /// App SRAM peak, bytes.
    pub app_sram_bytes: usize,
    /// Projected battery lifetime, days.
    pub lifetime_days: f64,
    /// Whether every hard budget holds for this flavor.
    pub within_budget: bool,
    /// The paper row this flavor is checked against.
    pub paper: PaperRow,
}

impl FlavorFootprint {
    /// Total FRAM demand, bytes.
    pub fn total_fram_bytes(&self) -> usize {
        self.system_fram_bytes + self.app_fram_bytes
    }

    /// Total peak SRAM demand, bytes.
    pub fn total_sram_bytes(&self) -> usize {
        self.system_sram_bytes + self.app_sram_bytes
    }
}

/// Exact serialized model size for a flavor, mirroring
/// `ml::embedded::EmbeddedModel::footprint_bytes` (magic + version +
/// u32 dim + f32 weights/means/scales/bias + CRC-32 trailer) without
/// training a model.
pub fn model_bytes(version: Version) -> usize {
    ml::embedded::encoded_len(version.feature_count())
}

/// Exact serialized Tsetlin model size for a flavor rung, mirroring
/// `ml::tsetlin::encoded_len` (magic + version + u32 dim + u32 pairs +
/// i32 thresholds + u64 clause masks + CRC-32 trailer) at the ladder's
/// clause count for that rung, without training a model.
pub fn tsetlin_model_bytes(version: Version) -> usize {
    ml::tsetlin::encoded_len(
        version.feature_count(),
        sift::zoo::tsetlin_pairs(version) as usize,
    )
}

/// Per-device checkpoint state for a flavor/backend pair: the encoded
/// [`sift::checkpoint::DetectorCheckpoint`] one device persists — the
/// 16-byte checkpoint header plus the backend's self-describing model
/// blob. A device's whole detector state must fit one FRAM checkpoint
/// slot, so the budget pass certifies it the same way it certifies the
/// on-device footprints. (The `slab` name, and the `"slab"` section of
/// the footprint report, predate the streamed fleet engine dropping its
/// per-device checkpoint swap; both are kept for report stability.)
pub fn slab_state_bytes(version: Version) -> usize {
    sift::checkpoint::HEADER_BYTES + model_bytes(version)
}

/// [`slab_state_bytes`] for the Tsetlin backend's flavor rung.
pub fn tsetlin_slab_state_bytes(version: Version) -> usize {
    sift::checkpoint::HEADER_BYTES + tsetlin_model_bytes(version)
}

/// Gate every backend's per-device checkpoint state against the FRAM
/// checkpoint slot payload: a detector that does not fit one NVRAM slot
/// cannot survive a brownout.
pub fn slab_findings() -> Vec<Finding> {
    let mut out = Vec::new();
    for version in Version::ALL {
        for (backend, bytes) in [
            ("svm", slab_state_bytes(version)),
            ("tsetlin", tsetlin_slab_state_bytes(version)),
        ] {
            if bytes > MAX_PAYLOAD_BYTES {
                out.push(Finding::new(
                    "budget-slab-state-exceeded",
                    "<budget>",
                    0,
                    format!(
                        "{version}/{backend}: checkpoint state {bytes} B exceeds the \
                         {MAX_PAYLOAD_BYTES} B checkpoint slot payload"
                    ),
                ));
            }
        }
    }
    out
}

/// Compute the three flavor footprints with the paper's configuration.
pub fn compute_footprints(config: &SiftConfig) -> Vec<FlavorFootprint> {
    let profiler = ResourceProfiler::default();
    Version::ALL
        .iter()
        .zip(PAPER_ROWS.iter())
        .map(|(&version, &paper)| {
            let model = model_bytes(version);
            let spec = sift_app_spec(version, config, model);
            let profile = profiler.profile(&[&spec]);
            let window = config.window_samples();
            // The checkpoint NVRAM region is static FRAM real estate on
            // top of the firmware image, so it counts against the map.
            let within_budget = profile.system_fram_bytes + profile.app_fram_bytes + NVRAM_BYTES
                <= FRAM_BYTES
                && profile.system_sram_bytes + profile.app_sram_bytes <= SRAM_BYTES
                && window <= MAX_ARRAY_ELEMS;
            FlavorFootprint {
                version,
                model_bytes: model,
                window_samples: window,
                system_fram_bytes: profile.system_fram_bytes,
                app_fram_bytes: profile.app_fram_bytes,
                system_sram_bytes: profile.system_sram_bytes,
                app_sram_bytes: profile.app_sram_bytes,
                lifetime_days: profile.lifetime_days,
                within_budget,
                paper,
            }
        })
        .collect()
}

/// Turn footprints into findings: hard budget violations are errors,
/// drift from the paper's table is a warning.
pub fn budget_findings(footprints: &[FlavorFootprint]) -> Vec<Finding> {
    let mut out = Vec::new();
    for fp in footprints {
        let v = fp.version;
        if fp.total_fram_bytes() + NVRAM_BYTES > FRAM_BYTES {
            out.push(Finding::new(
                "budget-fram-exceeded",
                "<budget>",
                0,
                format!(
                    "{v}: static FRAM {} B (+{} B checkpoint region) exceeds the Amulet's {} B",
                    fp.total_fram_bytes(),
                    NVRAM_BYTES,
                    FRAM_BYTES
                ),
            ));
        }
        if fp.total_sram_bytes() > SRAM_BYTES {
            out.push(Finding::new(
                "budget-sram-exceeded",
                "<budget>",
                0,
                format!(
                    "{v}: peak SRAM {} B exceeds the Amulet's {} B",
                    fp.total_sram_bytes(),
                    SRAM_BYTES
                ),
            ));
        }
        if fp.window_samples > MAX_ARRAY_ELEMS {
            out.push(Finding::new(
                "budget-array-limit",
                "<budget>",
                0,
                format!(
                    "{v}: window buffer of {} samples exceeds MAX_ARRAY_ELEMS = {}",
                    fp.window_samples, MAX_ARRAY_ELEMS
                ),
            ));
        }
        let drift = |name: &str, got_kb: f64, paper_kb: f64| -> Option<Finding> {
            let rel = (got_kb - paper_kb).abs() / paper_kb;
            (rel > FRAM_TOLERANCE).then(|| {
                Finding::new(
                    "budget-paper-drift",
                    "<budget>",
                    0,
                    format!(
                        "{v}: {name} {got_kb:.2} KB is {:.1}% from the paper's {paper_kb:.2} KB",
                        rel * 100.0
                    ),
                )
            })
        };
        let kb = |b: usize| b as f64 / 1024.0;
        out.extend(drift(
            "system FRAM",
            kb(fp.system_fram_bytes),
            fp.paper.system_fram_kb,
        ));
        out.extend(drift("app FRAM", kb(fp.app_fram_bytes), fp.paper.app_fram_kb));
        if fp.app_sram_bytes != fp.paper.app_sram_b {
            out.push(Finding::new(
                "budget-paper-drift",
                "<budget>",
                0,
                format!(
                    "{v}: app SRAM {} B != the paper's {} B",
                    fp.app_sram_bytes, fp.paper.app_sram_b
                ),
            ));
        }
    }
    out
}

/// Gate the certified worst-case stack against the SRAM map: every
/// embedded entry point's chain must fit next to the worst flavor's
/// static SRAM demand. On the MSP430 the stack and app statics share
/// the same 2 KB, so the check is `statics + max stack <= SRAM_BYTES`.
pub fn stack_findings(footprints: &[FlavorFootprint], stack: &StackReport) -> Vec<Finding> {
    let worst_statics = footprints
        .iter()
        .map(FlavorFootprint::total_sram_bytes)
        .max()
        .unwrap_or(0);
    let mut out = Vec::new();
    for e in &stack.entries {
        let total = worst_statics + e.stack_bytes;
        if total > SRAM_BYTES {
            out.push(Finding::new(
                "budget-stack-exceeded",
                "<budget>",
                0,
                format!(
                    "{}: worst-case stack {} B over {} frames + {} B static SRAM = {} B \
                     exceeds the Amulet's {} B (chain: {})",
                    e.label,
                    e.stack_bytes,
                    e.frames,
                    worst_statics,
                    total,
                    SRAM_BYTES,
                    e.chain.join(" \u{2192} "),
                ),
            ));
        }
    }
    out
}

/// Render the footprint table as the `results/ANALYZER_footprint.json`
/// document (hand-rolled JSON; the workspace has no serde).
pub fn footprint_json(
    config: &SiftConfig,
    footprints: &[FlavorFootprint],
    stack: &StackReport,
    dead_pub: &[String],
) -> String {
    let mut rows = String::new();
    for (i, fp) in footprints.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"version\": \"{}\",\n",
                "      \"model_bytes\": {},\n",
                "      \"window_samples\": {},\n",
                "      \"system_fram_bytes\": {},\n",
                "      \"app_fram_bytes\": {},\n",
                "      \"total_fram_bytes\": {},\n",
                "      \"system_sram_bytes\": {},\n",
                "      \"app_sram_bytes\": {},\n",
                "      \"total_sram_bytes\": {},\n",
                "      \"lifetime_days\": {:.2},\n",
                "      \"within_budget\": {},\n",
                "      \"paper\": {{ \"system_fram_kb\": {}, \"app_fram_kb\": {}, ",
                "\"app_sram_b\": {}, \"lifetime_days\": {} }}\n",
                "    }}"
            ),
            fp.version,
            fp.model_bytes,
            fp.window_samples,
            fp.system_fram_bytes,
            fp.app_fram_bytes,
            fp.total_fram_bytes(),
            fp.system_sram_bytes,
            fp.app_sram_bytes,
            fp.total_sram_bytes(),
            fp.lifetime_days,
            fp.within_budget,
            fp.paper.system_fram_kb,
            fp.paper.app_fram_kb,
            fp.paper.app_sram_b,
            fp.paper.lifetime_days,
        ));
    }
    // Per-backend serialized model sizes for the detector zoo: the
    // same flavor ladder, one row per registered backend family.
    let mut zoo = String::new();
    for (i, &version) in Version::ALL.iter().enumerate() {
        if i > 0 {
            zoo.push_str(",\n");
        }
        zoo.push_str(&format!(
            concat!(
                "    {{ \"flavor\": \"{}\", \"svm_model_bytes\": {}, ",
                "\"tsetlin_model_bytes\": {} }}"
            ),
            version,
            model_bytes(version),
            tsetlin_model_bytes(version),
        ));
    }
    // Per-device checkpoint-state table, per flavor and backend (kept
    // under the report's `slab` key).
    let mut slab_rows = String::new();
    for (i, &version) in Version::ALL.iter().enumerate() {
        if i > 0 {
            slab_rows.push_str(",\n");
        }
        slab_rows.push_str(&format!(
            concat!(
                "      {{ \"flavor\": \"{}\", \"svm_state_bytes\": {}, ",
                "\"tsetlin_state_bytes\": {} }}"
            ),
            version,
            slab_state_bytes(version),
            tsetlin_slab_state_bytes(version),
        ));
    }
    // The certified worst-case stack table from the call-graph pass:
    // statics + stack share the same 2 KB SRAM, so each entry carries
    // its headroom against the worst flavor's static demand.
    let worst_statics = footprints
        .iter()
        .map(FlavorFootprint::total_sram_bytes)
        .max()
        .unwrap_or(0);
    let mut stack_rows = String::new();
    for (i, e) in stack.entries.iter().enumerate() {
        if i > 0 {
            stack_rows.push_str(",\n");
        }
        let chain: Vec<String> = e
            .chain
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        stack_rows.push_str(&format!(
            concat!(
                "      {{\n",
                "        \"entry\": \"{}\",\n",
                "        \"file\": \"{}\",\n",
                "        \"line\": {},\n",
                "        \"stack_bytes\": {},\n",
                "        \"frames\": {},\n",
                "        \"headroom_bytes\": {},\n",
                "        \"chain\": [{}]\n",
                "      }}"
            ),
            json_escape(&e.label),
            json_escape(&e.file),
            e.line,
            e.stack_bytes,
            e.frames,
            SRAM_BYTES.saturating_sub(worst_statics + e.stack_bytes),
            chain.join(", "),
        ));
    }
    // The reachability report: `pub fn`s nothing runs, one per line.
    let dead_rows = if dead_pub.is_empty() {
        "[]".to_string()
    } else {
        let lines: Vec<String> = dead_pub
            .iter()
            .map(|d| format!("    \"{}\"", json_escape(d)))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    format!(
        concat!(
            "{{\n",
            "  \"source\": \"cargo run -p analyzer (budget pass)\",\n",
            "  \"config\": {{ \"window_s\": {}, \"fs_hz\": {}, \"grid_n\": {} }},\n",
            "  \"device\": {{ \"fram_bytes\": {}, \"sram_bytes\": {}, ",
            "\"max_array_elems\": {} }},\n",
            "  \"checkpoint\": {{ \"nvram_bytes\": {}, \"slot_bytes\": {}, ",
            "\"header_bytes\": {}, \"max_payload_bytes\": {} }},\n",
            "  \"flavors\": [\n{}\n  ],\n",
            "  \"detector_zoo\": [\n{}\n  ],\n",
            "  \"slab\": {{\n",
            "    \"checkpoint_header_bytes\": {},\n",
            "    \"per_device\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"stack\": {{\n",
            "    \"model\": {{ \"word_bytes\": {}, \"frame_overhead_bytes\": {}, ",
            "\"register_args\": {} }},\n",
            "    \"worst_static_sram_bytes\": {},\n",
            "    \"entries\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"dead_pub\": {}\n",
            "}}\n"
        ),
        config.window_s,
        config.fs,
        config.grid_n,
        FRAM_BYTES,
        SRAM_BYTES,
        MAX_ARRAY_ELEMS,
        NVRAM_BYTES,
        SLOT_BYTES,
        HEADER_BYTES,
        MAX_PAYLOAD_BYTES,
        rows,
        zoo,
        sift::checkpoint::HEADER_BYTES,
        slab_rows,
        WORD_BYTES,
        FRAME_OVERHEAD_BYTES,
        REGISTER_ARGS,
        worst_statics,
        stack_rows,
        dead_rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_within_every_budget() {
        let config = SiftConfig::default();
        let fps = compute_footprints(&config);
        assert_eq!(fps.len(), 3);
        assert!(fps.iter().all(|fp| fp.within_budget));
        let findings = budget_findings(&fps);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn model_bytes_match_embedded_format() {
        // 8 features: 12 header + 4 * (24 weights/means/scales + 1 bias)
        // + 4 CRC; 5 features: 12 + 4 * 16 + 4.
        assert_eq!(model_bytes(Version::Original), 116);
        assert_eq!(model_bytes(Version::Simplified), 116);
        assert_eq!(model_bytes(Version::Reduced), 80);
    }

    #[test]
    fn tsetlin_model_bytes_match_codec_and_fit_checkpoint_slots() {
        // dim·4 thresholds (i32) + 2·pairs masks (u64), 16-byte header,
        // 4-byte CRC: 32/16/8 clause pairs down the ladder.
        assert_eq!(tsetlin_model_bytes(Version::Original), 660);
        assert_eq!(tsetlin_model_bytes(Version::Simplified), 404);
        assert_eq!(tsetlin_model_bytes(Version::Reduced), 228);
        // Strictly monotone down the ladder, and every rung rides the
        // same FRAM checkpoint container the SVM uses.
        for version in Version::ALL {
            assert!(
                sift::checkpoint::HEADER_BYTES + tsetlin_model_bytes(version)
                    <= MAX_PAYLOAD_BYTES,
                "{version}: checkpoint payload overflows the slot"
            );
        }
        assert!(tsetlin_model_bytes(Version::Original) > tsetlin_model_bytes(Version::Simplified));
        assert!(tsetlin_model_bytes(Version::Simplified) > tsetlin_model_bytes(Version::Reduced));
    }

    #[test]
    fn slab_state_fits_every_checkpoint_slot() {
        // Every flavor/backend pair's checkpoint must fit the container
        // brownout persistence uses, and the pass reports no violations
        // today.
        for version in Version::ALL {
            assert_eq!(
                slab_state_bytes(version),
                sift::checkpoint::HEADER_BYTES + model_bytes(version)
            );
            assert!(slab_state_bytes(version) <= MAX_PAYLOAD_BYTES);
            assert!(tsetlin_slab_state_bytes(version) <= MAX_PAYLOAD_BYTES);
        }
        assert!(slab_findings().is_empty());
    }

    #[test]
    fn oversized_window_trips_the_array_limit() {
        let config = SiftConfig {
            window_s: 4.0, // 1440 samples > MAX_ARRAY_ELEMS
            ..SiftConfig::default()
        };
        let fps = compute_footprints(&config);
        assert!(fps.iter().all(|fp| !fp.within_budget));
        let findings = budget_findings(&fps);
        assert!(findings.iter().any(|f| f.rule == "budget-array-limit"));
    }

    fn fake_stack(label: &str, bytes: usize) -> StackReport {
        StackReport {
            entries: vec![crate::callgraph::EntryStack {
                label: label.to_string(),
                file: "crates/wiot/src/survival.rs".to_string(),
                line: 1,
                stack_bytes: bytes,
                frames: 2,
                chain: vec![label.to_string(), "helper".to_string()],
            }],
        }
    }

    #[test]
    fn footprint_json_is_wellformed_enough() {
        let config = SiftConfig::default();
        let doc = footprint_json(
            &config,
            &compute_footprints(&config),
            &fake_stack("SurvivalPolicy::step", 64),
            &["crates/x/src/y.rs: Y::z".to_string()],
        );
        assert_eq!(doc.matches("\"version\"").count(), 3);
        assert_eq!(doc.matches("\"flavor\"").count(), 6);
        assert_eq!(doc.matches("\"tsetlin_model_bytes\"").count(), 3);
        assert_eq!(doc.matches("\"svm_state_bytes\"").count(), 3);
        assert!(doc.contains("\"checkpoint_header_bytes\": 16"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.contains("\"within_budget\": true"));
        assert!(doc.contains("\"nvram_bytes\": 4096"));
        assert!(doc.contains("\"stack\""));
        assert!(doc.contains("\"entry\": \"SurvivalPolicy::step\""));
        assert!(doc.contains("\"stack_bytes\": 64"));
        assert!(doc.contains("\"frame_overhead_bytes\": 4"));
        assert!(doc.contains("\"dead_pub\": [\n    \"crates/x/src/y.rs: Y::z\"\n  ]"));
    }

    #[test]
    fn stack_gate_fires_when_statics_plus_stack_overflow_sram() {
        let fps = compute_footprints(&SiftConfig::default());
        // A realistic chain fits comfortably…
        assert!(stack_findings(&fps, &fake_stack("SurvivalPolicy::step", 200)).is_empty());
        // …but statics + a deep chain past 2 KB is an error.
        let worst = fps
            .iter()
            .map(FlavorFootprint::total_sram_bytes)
            .max()
            .unwrap();
        let over = SRAM_BYTES - worst + 2;
        let fs = stack_findings(&fps, &fake_stack("SurvivalPolicy::step", over));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "budget-stack-exceeded");
        assert!(fs[0].message.contains("SurvivalPolicy::step"), "{}", fs[0].message);
    }

    #[test]
    fn checkpoint_region_fits_next_to_every_flavor() {
        let fps = compute_footprints(&SiftConfig::default());
        for fp in &fps {
            assert!(
                fp.total_fram_bytes() + NVRAM_BYTES <= FRAM_BYTES,
                "{}: {} + {} exceeds FRAM",
                fp.version,
                fp.total_fram_bytes(),
                NVRAM_BYTES
            );
        }
    }
}
